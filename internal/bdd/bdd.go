// Package bdd implements reduced ordered binary decision diagrams with an
// ITE-based operation core and Minato-Morreale irredundant SOP extraction.
// In the optimization pipeline it plays the role of ABC's `collapse`
// command: small-support logic cones are collapsed into their canonical
// function and resynthesized from a compact cover.
package bdd

import (
	"errors"
	"fmt"

	"logicregression/internal/aig"
	"logicregression/internal/sop"
)

// ErrBudget is returned when a construction exceeds the manager node budget.
var ErrBudget = errors.New("bdd: node budget exceeded")

// Ref is a BDD node reference. 0 is constant false, 1 is constant true.
type Ref = int

// Constant references.
const (
	False Ref = 0
	True  Ref = 1
)

// node is one decision node; terminals use level == manager.nvars.
type node struct {
	level, lo, hi int32
}

// cacheEntry is one slot of the ITE computed cache; f == 0 marks it empty
// (ITE never caches a constant condition).
type cacheEntry struct {
	f, g, h, r int32
}

// Initial table sizes (powers of two). They grow with the node count, so a
// manager that builds a handful of nodes stays small: fbdt creates one per
// exhaustively enumerated output.
const (
	minUnique = 1 << 11
	minCache  = 1 << 10
)

// Manager owns BDD nodes over a fixed variable count and order (variable i
// is at level i).
//
// Node r lives at nodes[r]. The unique table is an open-addressed, linearly
// probed table of node indices (0 = empty slot) kept at most half full; it
// is rebuilt from the node array when it grows. The ITE computed cache is
// direct-mapped and lossy: a colliding entry overwrites the older one. A
// lost entry only costs a recomputation, and a recomputation allocates no
// node (every subresult of an earlier ITE already exists in the unique
// table), so node numbering, and with it every budget decision, is the same
// as with an exact cache. neg[r] memoizes Not(r) (0 = unknown).
//
// An operation that would allocate past the node budget allocates nothing
// and records ErrBudget. While the error is set, Var, ITE (and And, Or,
// Xor), Not and the ISOP return False or an empty cover at once and cache
// nothing; Guard reports the error and clears it.
type Manager struct {
	nvars    int
	maxNodes int
	nodes    []node
	unique   []int32
	cache    []cacheEntry
	neg      []int32
	err      error
}

// NewManager creates a manager for nvars variables with a node budget
// (0 = default 1<<22).
func NewManager(nvars, maxNodes int) *Manager {
	if maxNodes <= 0 {
		maxNodes = 1 << 22
	}
	m := &Manager{nvars: nvars, maxNodes: maxNodes}
	m.Reset()
	return m
}

// Reset empties the manager back to its two terminals and clears the
// budget error. The tables keep their capacity, so a manager reused across
// many small builds allocates only when a build outgrows every earlier one.
func (m *Manager) Reset() {
	t := int32(m.nvars)
	m.nodes = append(m.nodes[:0], node{level: t}, node{level: t}) // False, True
	m.neg = append(m.neg[:0], 0, 0)
	m.unique = resize(m.unique, minUnique)
	m.cache = resize(m.cache, minCache)
	m.err = nil
}

// resize returns a zeroed slice of length n, reusing s's array when it is
// large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// NumNodes returns the allocated node count (including terminals).
func (m *Manager) NumNodes() int { return len(m.nodes) }

// hash3 mixes three 32-bit keys into 64 bits with murmur3's finalizer, so
// the low bits the tables index by depend on every key bit (node indices
// and levels are small, dense integers that a weak hash clusters).
//
//logicreg:hotpath
func hash3(a, b, c int32) uint64 {
	h := uint64(uint32(b))<<32 | uint64(uint32(c))
	h ^= uint64(uint32(a)) * 0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// probe returns the unique-table slot holding node (level, lo, hi), or the
// empty slot where it belongs, and the node index found there (0 if none).
//
//logicreg:hotpath
func (m *Manager) probe(level, lo, hi int32) (slot int, r int32) {
	mask := uint64(len(m.unique) - 1)
	for i := hash3(level, lo, hi) & mask; ; i = (i + 1) & mask {
		r := m.unique[i]
		if r == 0 {
			return int(i), 0
		}
		if n := m.nodes[r]; n.level == level && n.lo == lo && n.hi == hi {
			return int(i), r
		}
	}
}

// cacheSlot returns the computed-cache slot of ITE(f, g, h).
//
//logicreg:hotpath
func (m *Manager) cacheSlot(f, g, h int32) *cacheEntry {
	return &m.cache[hash3(f, g, h)&uint64(len(m.cache)-1)]
}

func (m *Manager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	if m.err != nil {
		return False
	}
	slot, r := m.probe(level, int32(lo), int32(hi))
	if r != 0 {
		return Ref(r)
	}
	if len(m.nodes) >= m.maxNodes {
		m.err = ErrBudget
		return False
	}
	r = int32(len(m.nodes))
	m.nodes = append(m.nodes, node{level: level, lo: int32(lo), hi: int32(hi)})
	m.neg = append(m.neg, 0)
	m.unique[slot] = r
	if 2*len(m.nodes) > len(m.unique) {
		m.grow()
	}
	return Ref(r)
}

// grow doubles the unique table and reinserts every node. The computed
// cache follows at half the unique table's size (one to two entries per
// node); its entries are dropped, which the lossy cache permits.
func (m *Manager) grow() {
	m.unique = resize(m.unique, 2*len(m.unique))
	for r := 2; r < len(m.nodes); r++ {
		n := m.nodes[r]
		slot, _ := m.probe(n.level, n.lo, n.hi)
		m.unique[slot] = int32(r)
	}
	if want := len(m.unique) / 2; len(m.cache) < want {
		m.cache = resize(m.cache, want)
	}
}

// Var returns the BDD of variable i.
func (m *Manager) Var(i int) Ref {
	if i < 0 || i >= m.nvars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", i, m.nvars))
	}
	return m.mk(int32(i), False, True)
}

func (m *Manager) level(r Ref) int32 { return m.nodes[r].level }

func (m *Manager) cofactors(r Ref, level int32) (lo, hi Ref) {
	n := m.nodes[r]
	if n.level != level {
		return r, r
	}
	return Ref(n.lo), Ref(n.hi)
}

// ITE computes if-then-else(f, g, h).
func (m *Manager) ITE(f, g, h Ref) Ref {
	switch {
	case m.err != nil:
		return False
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	case g == False && h == True:
		return m.Not(f)
	}
	key := cacheEntry{f: int32(f), g: int32(g), h: int32(h)}
	if e := m.cacheSlot(key.f, key.g, key.h); e.f == key.f && e.g == key.g && e.h == key.h {
		return Ref(e.r)
	}
	level := min(m.level(f), m.level(g), m.level(h))
	f0, f1 := m.cofactors(f, level)
	g0, g1 := m.cofactors(g, level)
	h0, h1 := m.cofactors(h, level)
	lo := m.ITE(f0, g0, h0)
	hi := m.ITE(f1, g1, h1)
	r := m.mk(level, lo, hi)
	if m.err != nil {
		return False
	}
	// The recursion may have grown the cache: look the slot up again.
	key.r = int32(r)
	*m.cacheSlot(key.f, key.g, key.h) = key
	return r
}

// Not returns the complement. It visits the cofactors in the order
// ITE(f, False, True) would, so it allocates the same nodes in the same
// order.
func (m *Manager) Not(f Ref) Ref {
	if m.err != nil {
		return False
	}
	if f <= True {
		return True - f
	}
	if r := m.neg[f]; r != 0 {
		return Ref(r)
	}
	n := m.nodes[f]
	lo := m.Not(Ref(n.lo))
	hi := m.Not(Ref(n.hi))
	r := m.mk(n.level, lo, hi)
	if m.err != nil {
		return False
	}
	m.neg[f], m.neg[r] = int32(r), int32(f)
	return r
}

// And returns f AND g.
func (m *Manager) And(f, g Ref) Ref { return m.ITE(f, g, False) }

// Or returns f OR g.
func (m *Manager) Or(f, g Ref) Ref { return m.ITE(f, True, g) }

// Xor returns f XOR g.
func (m *Manager) Xor(f, g Ref) Ref { return m.ITE(f, m.Not(g), g) }

// Eval evaluates the function at a full assignment (len >= nvars).
func (m *Manager) Eval(f Ref, assignment []bool) bool {
	for f != False && f != True {
		n := m.nodes[f]
		if assignment[n.level] {
			f = Ref(n.hi)
		} else {
			f = Ref(n.lo)
		}
	}
	return f == True
}

// SatCount returns the number of satisfying assignments over all nvars
// variables (as float64 to tolerate wide supports). It computes the
// satisfying fraction, which is order- and level-independent, and scales by
// 2^nvars.
func (m *Manager) SatCount(f Ref) float64 {
	memo := make(map[Ref]float64)
	var frac func(r Ref) float64
	frac = func(r Ref) float64 {
		if r == False {
			return 0
		}
		if r == True {
			return 1
		}
		if v, ok := memo[r]; ok {
			return v
		}
		n := m.nodes[r]
		v := (frac(Ref(n.lo)) + frac(Ref(n.hi))) / 2
		memo[r] = v
		return v
	}
	return frac(f) * pow2(m.nvars)
}

func pow2(n int) float64 {
	v := 1.0
	for i := 0; i < n; i++ {
		v *= 2
	}
	return v
}

// Support returns the variable indices the function depends on, ascending.
func (m *Manager) Support(f Ref) []int {
	seen := make(map[Ref]bool)
	vars := make(map[int]bool)
	var walk func(Ref)
	walk = func(r Ref) {
		if r <= True || seen[r] {
			return
		}
		seen[r] = true
		n := m.nodes[r]
		vars[int(n.level)] = true
		walk(Ref(n.lo))
		walk(Ref(n.hi))
	}
	walk(f)
	out := make([]int, 0, len(vars))
	for v := 0; v < m.nvars; v++ {
		if vars[v] {
			out = append(out, v)
		}
	}
	return out
}

// Guard runs f with the budget error cleared and returns the error f
// left behind (ErrBudget if some operation ran out of nodes or cubes),
// clearing it again so callers can keep using the manager for
// post-construction operations (Not, ISOP, ...) that may themselves
// allocate nodes.
func (m *Manager) Guard(f func()) error {
	m.err = nil
	f()
	err := m.err
	m.err = nil
	return err
}

// FromAIGOutput builds the BDD of output po of an AIG in a new manager,
// mapping PI i to variable i. It returns ErrBudget when the diagram exceeds
// the node budget.
func FromAIGOutput(g *aig.AIG, po int, maxNodes int) (*Manager, Ref, error) {
	m := NewManager(g.NumPIs(), maxNodes)
	root, err := m.AIGOutput(g, po)
	if err != nil {
		return nil, False, err
	}
	return m, root, nil
}

// AIGOutput builds the BDD of output po of an AIG in m, whose variable
// count must cover g's PIs (PI i becomes variable i). It returns ErrBudget
// when the diagram exceeds the node budget.
func (m *Manager) AIGOutput(g *aig.AIG, po int) (root Ref, err error) {
	const unbuilt = -1
	memo := make([]Ref, g.NumNodes())
	for i := range memo {
		memo[i] = unbuilt
	}
	var build func(n int) Ref
	build = func(n int) Ref {
		if n == 0 || m.err != nil {
			return False
		}
		if n <= g.NumPIs() {
			return m.Var(n - 1)
		}
		if r := memo[n]; r != unbuilt {
			return r
		}
		f0, f1 := g.Fanins(n)
		a := build(f0.Node())
		if f0.Compl() {
			a = m.Not(a)
		}
		b := build(f1.Node())
		if f1.Compl() {
			b = m.Not(b)
		}
		r := m.And(a, b)
		memo[n] = r
		return r
	}
	err = m.Guard(func() {
		l := g.PO(po)
		root = build(l.Node())
		if l.Compl() {
			root = m.Not(root)
		}
	})
	return root, err
}

// FromTruthTable builds the BDD of a function given as a truth table over
// the listed variables: table[i] is f at the minterm whose bit j (of i)
// gives the value of vars[j]. vars must be strictly ascending (they become
// the BDD order top-down). len(table) must be 1<<len(vars).
func FromTruthTable(m *Manager, table []bool, vars []int) Ref {
	if len(table) != 1<<uint(len(vars)) {
		panic(fmt.Sprintf("bdd: table length %d for %d vars", len(table), len(vars)))
	}
	for j := 1; j < len(vars); j++ {
		if vars[j] <= vars[j-1] {
			panic("bdd: vars must be strictly ascending")
		}
	}
	return m.fromTT(table, vars)
}

// fromTT recursively splits on vars[0] (the topmost level): the subfunction
// with vars[0]=0 lives at even minterm indices, =1 at odd indices.
func (m *Manager) fromTT(table []bool, vars []int) Ref {
	if m.err != nil {
		return False
	}
	if len(vars) == 0 {
		if table[0] {
			return True
		}
		return False
	}
	half := len(table) / 2
	lo := make([]bool, half)
	hi := make([]bool, half)
	for i := 0; i < half; i++ {
		lo[i] = table[2*i]
		hi[i] = table[2*i+1]
	}
	l := m.fromTT(lo, vars[1:])
	h := m.fromTT(hi, vars[1:])
	return m.mk(int32(vars[0]), l, h)
}

// ISOP computes an irredundant sum-of-products cover of f using the
// Minato-Morreale procedure. Cube variables are BDD variable indices.
//
// Beware: some functions (parity chains) have small BDDs but exponential
// covers; use ISOPBounded when the input function is not known to be
// cover-friendly. A node-budget overrun leaves the cover empty and ErrBudget
// set on the manager: run ISOP under Guard when the budget can trip.
func (m *Manager) ISOP(f Ref) sop.Cover {
	st := &isopState{memo: make(map[[2]Ref]isopResult), maxCubes: -1}
	cover, _ := m.isop(f, f, st)
	return cover
}

// ISOPBounded is ISOP with a cube budget: it returns ErrBudget (and no
// cover) once more than maxCubes cubes would be produced, which protects
// callers from functions with compact BDDs but exponential covers.
func (m *Manager) ISOPBounded(f Ref, maxCubes int) (cover sop.Cover, err error) {
	st := &isopState{memo: make(map[[2]Ref]isopResult), maxCubes: maxCubes}
	err = m.Guard(func() {
		cover, _ = m.isop(f, f, st)
	})
	if err != nil {
		return nil, err
	}
	return cover, nil
}

type isopResult struct {
	cover sop.Cover
	fn    Ref
}

// isopState carries the memo table and the cube budget (-1 = unlimited).
type isopState struct {
	memo     map[[2]Ref]isopResult
	maxCubes int
	produced int
}

// charge counts n produced cubes against the cube budget and records
// ErrBudget in m once it is exceeded.
func (m *Manager) charge(st *isopState, n int) {
	if st.maxCubes < 0 {
		return
	}
	st.produced += n
	if st.produced > st.maxCubes {
		m.err = ErrBudget
	}
}

// isop computes a cover C with L <= C <= U, returning the cover and the BDD
// of its function. Once the node or cube budget is exceeded it returns an
// empty result at once and memoizes nothing.
func (m *Manager) isop(L, U Ref, st *isopState) (sop.Cover, Ref) {
	if m.err != nil || L == False {
		return nil, False
	}
	if U == True {
		m.charge(st, 1)
		return sop.Cover{sop.Cube{}}, True
	}
	key := [2]Ref{L, U}
	if r, ok := st.memo[key]; ok {
		// Memo hits still produce cover copies downstream: charge them so
		// exponential cover assembly trips the budget even when the BDD
		// subproblem count stays small.
		if m.charge(st, len(r.cover)); m.err != nil {
			return nil, False
		}
		return r.cover.Clone(), r.fn
	}
	level := min(m.level(L), m.level(U))
	L0, L1 := m.cofactors(L, level)
	U0, U1 := m.cofactors(U, level)

	// Cubes that must contain the negative literal of var `level`.
	Lneg := m.And(L0, m.Not(U1))
	c0, f0 := m.isop(Lneg, U0, st)
	// Cubes that must contain the positive literal.
	Lpos := m.And(L1, m.Not(U0))
	c1, f1 := m.isop(Lpos, U1, st)
	// Remainder covered by cubes free of var `level`.
	Lrem := m.Or(m.And(L0, m.Not(f0)), m.And(L1, m.Not(f1)))
	Urem := m.And(U0, U1)
	cd, fd := m.isop(Lrem, Urem, st)
	if m.err != nil {
		return nil, False
	}

	v := int(level)
	var cover sop.Cover
	for _, c := range c0 {
		cover = append(cover, c.With(sop.Literal{Var: v, Neg: true}))
	}
	for _, c := range c1 {
		cover = append(cover, c.With(sop.Literal{Var: v, Neg: false}))
	}
	cover = append(cover, cd...)

	x := m.Var(v)
	fn := m.Or(fd, m.Or(m.And(m.Not(x), f0), m.And(x, f1)))
	if m.err != nil {
		return nil, False
	}
	st.memo[key] = isopResult{cover: cover.Clone(), fn: fn}
	return cover, fn
}
