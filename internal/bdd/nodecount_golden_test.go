package bdd

import (
	"math/rand"
	"reflect"
	"testing"
)

// nodeCountGolden is the exact NumNodes sequence of nodeCountTrace. The
// node budgets of Collapse and the exhaustive FBDT collapse compare
// against NumNodes, so a kernel change that allocates one node more or
// less anywhere (complement edges, sharing, a cache that creates nodes)
// changes which outputs collapse. This pins the count step by step.
var nodeCountGolden = []int{
	7, 21, 47, 85, 135, 197, 271, 357, 455, 565, 687, 821, 967, 1125,
	1295, 1477, 1, 60, 1, 60, 1, 60, 736, 15045, 719, 15046, 26489, 708,
	178, 1, 178, 1, 0, 178, 0, 178, 1, 0, 59, 1, 79, 1, 0, 79, 0, 79, 1,
	0, 55, 1, 55, 0, 3, 55, 0, 55, 0, 1, 124, 1, 156, 0, 8, 156, 0, 174,
	1, 0, 25, 1, 26, 0, 1, 26, 0, 26, 0, 2, 233, 1, 331, 0, 18, 331, 0,
	333, 1, 0,
}

// nodeCountTrace runs a fixed sequence of builds and records NumNodes (and
// the budget verdicts and cover sizes that depend on it) after each step.
func nodeCountTrace() []int {
	var trace []int
	flag := func(err error) int {
		if err != nil {
			return 1
		}
		return 0
	}

	// A 16-bit ripple-carry adder, interleaved order, one step per bit; then
	// the same build under a budget that trips halfway, and work on the
	// tripped manager afterwards.
	adderBit := func(m *Manager, j int, carry Ref) Ref {
		a, b := m.Var(2*j), m.Var(2*j+1)
		axb := m.Xor(a, b)
		m.Xor(axb, carry)
		return m.Or(m.And(a, b), m.And(axb, carry))
	}
	m := NewManager(32, 0)
	carry := False
	for j := 0; j < 16; j++ {
		carry = adderBit(m, j, carry)
		trace = append(trace, m.NumNodes())
	}
	m = NewManager(32, 60)
	trace = append(trace, flag(m.Guard(func() {
		carry := False
		for j := 0; j < 16; j++ {
			carry = adderBit(m, j, carry)
		}
	})), m.NumNodes())
	trace = append(trace, flag(m.Guard(func() { m.Not(m.Var(0)) })), m.NumNodes())
	trace = append(trace, flag(m.Guard(func() { m.And(m.Var(30), m.Var(31)) })), m.NumNodes())

	// A random 12-variable truth table, its complement and both covers.
	rng := rand.New(rand.NewSource(9))
	table := make([]bool, 1<<12)
	for i := range table {
		table[i] = rng.Intn(2) == 1
	}
	vars := make([]int, 12)
	for i := range vars {
		vars[i] = i
	}
	m = NewManager(12, 0)
	root := FromTruthTable(m, table, vars)
	trace = append(trace, m.NumNodes())
	on := m.ISOP(root)
	trace = append(trace, m.NumNodes(), len(on))
	neg := m.Not(root)
	trace = append(trace, m.NumNodes())
	off := m.ISOP(neg)
	trace = append(trace, m.NumNodes(), len(off))

	// Collapse's per-output sequence on random AIG outputs: a build one node
	// short of its size trips the budget; with a little headroom the build
	// fits and the node budget or the cube budget trips inside the covers.
	for seed, headroom := range []int{0, 20, 100, 400, 2000, 1 << 20} {
		g := randomAIG(rand.New(rand.NewSource(100+int64(seed))), 10, 90)
		full, _, err := FromAIGOutput(g, 0, 0)
		if err != nil {
			panic(err)
		}
		n := full.NumNodes()
		_, _, err = FromAIGOutput(g, 0, n-1)
		trace = append(trace, n, flag(err))
		m, root, err := FromAIGOutput(g, 0, n+headroom)
		if err != nil {
			panic(err)
		}
		on, errOn := m.ISOPBounded(root, 1<<20)
		trace = append(trace, m.NumNodes(), flag(errOn), len(on))
		var neg Ref
		errNot := m.Guard(func() { neg = m.Not(root) })
		trace = append(trace, m.NumNodes(), flag(errNot))
		off, errOff := m.ISOPBounded(neg, 6)
		trace = append(trace, m.NumNodes(), flag(errOff), len(off))
	}
	return trace
}

func TestNodeCountGolden(t *testing.T) {
	if got := nodeCountTrace(); !reflect.DeepEqual(got, nodeCountGolden) {
		t.Fatalf("node-count trace differs from the golden:\n got %#v\nwant %#v", got, nodeCountGolden)
	}
}
