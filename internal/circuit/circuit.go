// Package circuit implements gate-level Boolean networks made of 2-input
// primitive gates, the common representation shared by the black-box cases,
// the learner output, and the optimizer.
//
// A Circuit is a DAG stored in topological order: every gate's fanins have
// smaller node ids than the gate itself, which the builder API enforces by
// construction. Node ids are plain ints (type Signal) handed out by the Add*
// methods.
//
// Gate size follows the 2019 ICCAD contest convention: Size counts the
// 2-input primitive gates (AND, OR, XOR, NAND, NOR, XNOR); inverters and
// buffers are free wiring.
package circuit

import (
	"fmt"
	"sort"
)

// GateType enumerates node kinds.
type GateType uint8

// Node kinds. PI nodes carry no fanins; Const0/Const1 are the Boolean
// constants; Not and Buf are single-fanin; the rest are 2-input gates.
const (
	PI GateType = iota
	Const0
	Const1
	Not
	Buf
	And
	Or
	Xor
	Nand
	Nor
	Xnor
)

var gateNames = [...]string{
	PI: "PI", Const0: "CONST0", Const1: "CONST1", Not: "NOT", Buf: "BUF",
	And: "AND", Or: "OR", Xor: "XOR", Nand: "NAND", Nor: "NOR", Xnor: "XNOR",
}

func (g GateType) String() string {
	if int(g) < len(gateNames) {
		return gateNames[g]
	}
	return fmt.Sprintf("GateType(%d)", uint8(g))
}

// TwoInput reports whether the gate type takes two fanins.
func (g GateType) TwoInput() bool { return g >= And }

// Signal identifies a node in a Circuit.
type Signal = int

// Node is one vertex of the network.
type Node struct {
	Type GateType
	In0  Signal // first fanin (Not/Buf use only In0)
	In1  Signal // second fanin (2-input gates only)
}

// Circuit is a combinational Boolean network.
type Circuit struct {
	nodes   []Node
	pis     []Signal // node ids of primary inputs, in declaration order
	piNames []string
	pos     []Signal // driver node id per primary output
	poNames []string

	const0 Signal // lazily created constant nodes; -1 when absent
	const1 Signal
}

// New returns an empty circuit.
func New() *Circuit {
	return &Circuit{const0: -1, const1: -1}
}

// FromNodes assembles a circuit directly from a node list, PI registry, and
// PO bindings, bypassing the builder API's by-construction checks. It is the
// low-level constructor for tools that materialize circuits from external
// representations (deserializers, test harnesses, fuzzers); callers are
// responsible for validity — run check.Verify on anything assembled here
// before letting it into the pipeline.
func FromNodes(nodes []Node, piNames []string, pis []Signal, poNames []string, pos []Signal) *Circuit {
	c := &Circuit{
		nodes:   append([]Node(nil), nodes...),
		pis:     append([]Signal(nil), pis...),
		piNames: append([]string(nil), piNames...),
		pos:     append([]Signal(nil), pos...),
		poNames: append([]string(nil), poNames...),
		const0:  -1,
		const1:  -1,
	}
	for id, n := range c.nodes {
		switch n.Type {
		case Const0:
			if c.const0 < 0 {
				c.const0 = id
			}
		case Const1:
			if c.const1 < 0 {
				c.const1 = id
			}
		}
	}
	return c
}

// NumNodes returns the total node count (PIs, constants, and gates).
func (c *Circuit) NumNodes() int { return len(c.nodes) }

// NumPI returns the number of primary inputs.
func (c *Circuit) NumPI() int { return len(c.pis) }

// NumPO returns the number of primary outputs.
func (c *Circuit) NumPO() int { return len(c.pos) }

// PINames returns the primary input names in declaration order.
func (c *Circuit) PINames() []string { return append([]string(nil), c.piNames...) }

// PONames returns the primary output names in declaration order.
func (c *Circuit) PONames() []string { return append([]string(nil), c.poNames...) }

// PISignal returns the node id of the i-th primary input.
func (c *Circuit) PISignal(i int) Signal { return c.pis[i] }

// POSignal returns the driver node id of the i-th primary output.
func (c *Circuit) POSignal(i int) Signal { return c.pos[i] }

// Node returns the node with the given id.
func (c *Circuit) Node(id Signal) Node { return c.nodes[id] }

// AddPI appends a primary input with the given name and returns its signal.
func (c *Circuit) AddPI(name string) Signal {
	id := c.push(Node{Type: PI})
	c.pis = append(c.pis, id)
	c.piNames = append(c.piNames, name)
	return id
}

// AddPO declares a primary output named name driven by s.
func (c *Circuit) AddPO(name string, s Signal) {
	c.checkSignal(s)
	c.pos = append(c.pos, s)
	c.poNames = append(c.poNames, name)
}

// SetPODriver rebinds output i to a different driver signal. Logic feeding
// only the old driver becomes unreachable and stops counting toward Size.
func (c *Circuit) SetPODriver(i int, s Signal) {
	c.checkSignal(s)
	c.pos[i] = s
}

// Const returns the constant-b signal, creating the node on first use.
func (c *Circuit) Const(b bool) Signal {
	if b {
		if c.const1 < 0 {
			c.const1 = c.push(Node{Type: Const1})
		}
		return c.const1
	}
	if c.const0 < 0 {
		c.const0 = c.push(Node{Type: Const0})
	}
	return c.const0
}

func (c *Circuit) push(n Node) Signal {
	c.nodes = append(c.nodes, n)
	return len(c.nodes) - 1
}

func (c *Circuit) checkSignal(s Signal) {
	if s < 0 || s >= len(c.nodes) {
		panic(fmt.Sprintf("circuit: signal %d out of range [0,%d)", s, len(c.nodes)))
	}
}

func (c *Circuit) gate2(t GateType, a, b Signal) Signal {
	c.checkSignal(a)
	c.checkSignal(b)
	return c.push(Node{Type: t, In0: a, In1: b})
}

// And returns a AND b.
func (c *Circuit) And(a, b Signal) Signal { return c.gate2(And, a, b) }

// Or returns a OR b.
func (c *Circuit) Or(a, b Signal) Signal { return c.gate2(Or, a, b) }

// Xor returns a XOR b.
func (c *Circuit) Xor(a, b Signal) Signal { return c.gate2(Xor, a, b) }

// Nand returns NOT(a AND b).
func (c *Circuit) Nand(a, b Signal) Signal { return c.gate2(Nand, a, b) }

// Nor returns NOT(a OR b).
func (c *Circuit) Nor(a, b Signal) Signal { return c.gate2(Nor, a, b) }

// Xnor returns NOT(a XOR b).
func (c *Circuit) Xnor(a, b Signal) Signal { return c.gate2(Xnor, a, b) }

// NotGate returns NOT a.
func (c *Circuit) NotGate(a Signal) Signal {
	c.checkSignal(a)
	return c.push(Node{Type: Not, In0: a})
}

// BufGate returns a buffer of a.
func (c *Circuit) BufGate(a Signal) Signal {
	c.checkSignal(a)
	return c.push(Node{Type: Buf, In0: a})
}

// Mux returns sel ? t : f built from 2-input gates.
func (c *Circuit) Mux(sel, t, f Signal) Signal {
	return c.Or(c.And(sel, t), c.And(c.NotGate(sel), f))
}

// Size returns the number of 2-input primitive gates (the contest metric).
// Inverters, buffers, constants, and PIs are not counted. Only gates in the
// transitive fanin of some PO are counted; dangling gates do not exist in the
// contest netlist format and are excluded here for the same reason.
func (c *Circuit) Size() int {
	reach := c.reachable()
	n := 0
	for id, node := range c.nodes {
		if reach[id] && node.Type.TwoInput() {
			n++
		}
	}
	return n
}

// SizeWithInverters returns the gate count including NOT gates, for
// diagnostics where inverter pressure matters.
func (c *Circuit) SizeWithInverters() int {
	reach := c.reachable()
	n := 0
	for id, node := range c.nodes {
		if reach[id] && (node.Type.TwoInput() || node.Type == Not) {
			n++
		}
	}
	return n
}

// reachable marks nodes in the transitive fanin of any PO.
func (c *Circuit) reachable() []bool {
	mark := make([]bool, len(c.nodes))
	var stack []Signal
	for _, s := range c.pos {
		if !mark[s] {
			mark[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := c.nodes[id]
		switch {
		case n.Type == PI || n.Type == Const0 || n.Type == Const1:
		case n.Type.TwoInput():
			for _, f := range [2]Signal{n.In0, n.In1} {
				if !mark[f] {
					mark[f] = true
					stack = append(stack, f)
				}
			}
		default: // Not, Buf
			if !mark[n.In0] {
				mark[n.In0] = true
				stack = append(stack, n.In0)
			}
		}
	}
	return mark
}

// Eval evaluates the circuit on one full input assignment (one bool per PI,
// in PI declaration order) and returns one bool per PO.
func (c *Circuit) Eval(assignment []bool) []bool {
	if len(assignment) != len(c.pis) {
		panic(fmt.Sprintf("circuit: Eval got %d inputs, want %d", len(assignment), len(c.pis)))
	}
	in := make([]uint64, len(assignment))
	for i, b := range assignment {
		if b {
			in[i] = 1
		}
	}
	words := make([]uint64, len(c.pos))
	c.evalLanes(in, 1, c.pos, words, make([]uint64, len(c.nodes)))
	out := make([]bool, len(c.pos))
	for i, w := range words {
		out[i] = w&1 == 1
	}
	return out
}

// EvalWords evaluates 64 patterns in parallel: inputs[i] holds 64 values of
// PI i (bit k = pattern k), and the result holds 64 values per PO.
func (c *Circuit) EvalWords(inputs []uint64) []uint64 {
	if len(inputs) != len(c.pis) {
		panic(fmt.Sprintf("circuit: EvalWords got %d inputs, want %d", len(inputs), len(c.pis)))
	}
	out := make([]uint64, len(c.pos))
	c.evalLanes(inputs, 1, c.pos, out, make([]uint64, len(c.nodes)))
	return out
}

// EvalSignalWords evaluates 64 patterns in parallel and returns the value
// words of the requested internal signals (useful for probing logic during
// construction, before POs exist).
func (c *Circuit) EvalSignalWords(inputs []uint64, sigs ...Signal) []uint64 {
	if len(inputs) != len(c.pis) {
		panic(fmt.Sprintf("circuit: EvalSignalWords got %d inputs, want %d", len(inputs), len(c.pis)))
	}
	for _, s := range sigs {
		c.checkSignal(s)
	}
	out := make([]uint64, len(sigs))
	c.evalLanes(inputs, 1, sigs, out, make([]uint64, len(c.nodes)))
	return out
}

// LaneScratch returns the number of value words EvalLanes needs as scratch
// for lanes of w words.
func (c *Circuit) LaneScratch(w int) int { return laneTile(len(c.nodes), w) * len(c.nodes) }

// EvalLanes evaluates a lane-packed batch of patterns, the oracle batch
// layout: in holds one lane of w words per PI (lane i is in[i*w:(i+1)*w],
// bit k of the lane is pattern k), and out receives one lane per PO in the
// same layout. scratch must hold at least LaneScratch(w) words; its contents
// are overwritten. Tail bits of the last word are evaluated like any other
// pattern.
//
//logicreg:hotpath
func (c *Circuit) EvalLanes(in []uint64, w int, out, scratch []uint64) {
	c.evalLanes(in, w, c.pos, out, scratch)
}

// laneTileBytes is the value scratch of one simulation tile. The kernel
// evaluates every node over a tile of words before moving to the next node,
// so a tile whose values fit this budget keeps the fanin rows a gate reads
// in cache. It was sized on a Xeon with 2 MiB of L2 per core, where tiles of
// 256 KiB to 2 MiB measured within noise of each other.
const laneTileBytes = 2 << 20

// laneTile returns the tile width in words for a circuit of nodes nodes and
// lanes of w words: the widest tile whose values fit laneTileBytes, clamped
// to [1, w].
func laneTile(nodes, w int) int {
	t := laneTileBytes / (8 * max(nodes, 1))
	return max(min(t, w), 1)
}

// gateMask is one row of the simulation kernel's gate table. Every node
// computes the same branch-free formula
//
//	x = a^ma; y = (b&bm)^mb; v = ((x&y)&^xm | (x^y)&xm)^mo
//
// over its fanin values a and b: xm selects AND (0) or XOR (all ones), the
// other masks complement or constant-fill the operands and the result.
type gateMask struct{ ma, bm, mb, xm, mo uint64 }

const ones = ^uint64(0)

// gateMasks holds one row per GateType. PI nodes are not evaluated: the
// kernel copies their values in before the gate loop.
var gateMasks = [...]gateMask{
	PI:     {},
	Const0: {},                   // y = 0, so v = 0
	Const1: {mo: ones},           // v = ^0
	Not:    {mb: ones, mo: ones}, // y = 1, v = ^a
	Buf:    {mb: ones},           // y = 1, v = a
	And:    {bm: ones},
	Or:     {ma: ones, bm: ones, mb: ones, mo: ones}, // ^(^a & ^b)
	Xor:    {bm: ones, xm: ones},
	Nand:   {bm: ones, mo: ones},
	Nor:    {ma: ones, bm: ones, mb: ones}, // ^a & ^b
	Xnor:   {bm: ones, xm: ones, mo: ones},
}

// evalLanes is the simulation kernel behind every Eval entry point: it
// evaluates w-word lanes of PI values (see EvalLanes) and writes the lanes
// of sigs into out. It works node-major over tiles of laneTile words: the
// PI values of a tile are copied into vals, then each node computes its
// gateMasks formula over the whole tile, and the requested signals are
// copied out. vals holds one tile-wide row per node and must cover
// LaneScratch(w) words.
//
//logicreg:hotpath
func (c *Circuit) evalLanes(in []uint64, w int, sigs []Signal, out, vals []uint64) {
	nodes := c.nodes
	if w < 1 || len(in) < len(c.pis)*w || len(out) < len(sigs)*w {
		panic(fmt.Sprintf("circuit: evalLanes of %d-word lanes got %d input and %d output words for %d PIs and %d signals",
			w, len(in), len(out), len(c.pis), len(sigs)))
	}
	t := laneTile(len(nodes), w)
	if len(vals) < t*len(nodes) {
		panic(fmt.Sprintf("circuit: evalLanes got %d value words, want %d", len(vals), t*len(nodes)))
	}
	for b0 := 0; b0 < w; b0 += t {
		tw := min(t, w-b0)
		for i, s := range c.pis {
			copy(vals[s*t:s*t+tw], in[i*w+b0:])
		}
		evalTile(nodes, vals, t, tw)
		for j, s := range sigs {
			copy(out[j*w+b0:j*w+b0+tw], vals[s*t:])
		}
	}
}

// evalTile is the gate loop of evalLanes: every non-PI node, in
// topological order, computes its gateMasks formula over words [0, tw) of
// its row (node id's row starts at vals[id*t]). Single-word rows, the
// Eval/EvalWords shape, skip the row slicing.
//
//logicreg:hotpath
func evalTile(nodes []Node, vals []uint64, t, tw int) {
	for id, n := range nodes {
		if n.Type == PI {
			continue
		}
		gt := int(n.Type)
		if gt >= len(gateMasks) {
			panic(fmt.Sprintf("circuit: unknown gate type %v", n.Type))
		}
		m := &gateMasks[gt]
		d, a, b := id*t, n.In0*t, n.In1*t
		if a < 0 || a >= len(vals) || b < 0 || b >= len(vals) || d < 0 || d >= len(vals) {
			panic(fmt.Sprintf("circuit: node %d fanin out of range", id))
		}
		if tw == 1 {
			vals[d] = gateValue(vals[a], vals[b], m.ma, m.bm, m.mb, m.xm, m.mo)
			continue
		}
		gateRow(vals[d:d+tw], vals[a:a+tw], vals[b:b+tw], m)
	}
}

// gateRow computes one gate's formula over a row of words. It is kept out
// of line so that the word loop gets the registers to itself: inlined into
// evalTile's node loop, the masks and the loop index spill to the stack.
//
//go:noinline
//logicreg:hotpath
func gateRow(dst, va, vb []uint64, m *gateMask) {
	ma, bm, mb, xm, mo := m.ma, m.bm, m.mb, m.xm, m.mo
	if len(va) < len(dst) || len(vb) < len(dst) {
		panic("circuit: gateRow fanin rows shorter than the tile")
	}
	for k := range dst {
		dst[k] = gateValue(va[k], vb[k], ma, bm, mb, xm, mo)
	}
}

// gateValue is the gate formula of the mask table (see gateMask).
func gateValue(a, b, ma, bm, mb, xm, mo uint64) uint64 {
	x := a ^ ma
	y := b&bm ^ mb
	return (x&y&^xm | (x^y)&xm) ^ mo
}

// StructuralSupport returns the indices (into the PI list) of primary inputs
// in the transitive fanin of output po.
func (c *Circuit) StructuralSupport(po int) []int {
	mark := make([]bool, len(c.nodes))
	var walk func(Signal)
	walk = func(id Signal) {
		if mark[id] {
			return
		}
		mark[id] = true
		n := c.nodes[id]
		switch {
		case n.Type == PI || n.Type == Const0 || n.Type == Const1:
		case n.Type.TwoInput():
			walk(n.In0)
			walk(n.In1)
		default:
			walk(n.In0)
		}
	}
	walk(c.pos[po])
	var sup []int
	for i, s := range c.pis {
		if mark[s] {
			sup = append(sup, i)
		}
	}
	return sup
}

// PIIndexByName returns a map from PI name to PI index.
func (c *Circuit) PIIndexByName() map[string]int {
	m := make(map[string]int, len(c.piNames))
	for i, n := range c.piNames {
		m[n] = i
	}
	return m
}

// POIndexByName returns a map from PO name to PO index.
func (c *Circuit) POIndexByName() map[string]int {
	m := make(map[string]int, len(c.poNames))
	for i, n := range c.poNames {
		m[n] = i
	}
	return m
}

// Stats summarizes a circuit for reports.
type Stats struct {
	PIs, POs  int
	Gates     int // 2-input gates (contest size)
	Inverters int
	Nodes     int
	Depth     int // longest PI->PO path counting 2-input gates
}

// Stats computes summary statistics.
func (c *Circuit) Stats() Stats {
	reach := c.reachable()
	st := Stats{PIs: len(c.pis), POs: len(c.pos), Nodes: len(c.nodes)}
	depth := make([]int, len(c.nodes))
	for id, n := range c.nodes {
		if !reach[id] {
			continue
		}
		switch {
		case n.Type == PI || n.Type == Const0 || n.Type == Const1:
		case n.Type.TwoInput():
			st.Gates++
			depth[id] = 1 + max(depth[n.In0], depth[n.In1])
		case n.Type == Not:
			st.Inverters++
			depth[id] = depth[n.In0]
		default:
			depth[id] = depth[n.In0]
		}
	}
	for _, s := range c.pos {
		if depth[s] > st.Depth {
			st.Depth = depth[s]
		}
	}
	return st
}

// CopyCone copies the logic cone driving output po of src into dst,
// mapping src's primary inputs positionally onto the given dst signals, and
// returns the copied driver signal. It is the primitive behind stitching
// independently-built subcircuits (per-output learning, collapse fallback)
// into one netlist.
func CopyCone(dst *Circuit, piSigs []Signal, src *Circuit, po int) Signal {
	if len(piSigs) != src.NumPI() {
		panic(fmt.Sprintf("circuit: CopyCone got %d pi signals for %d PIs", len(piSigs), src.NumPI()))
	}
	mapped := make(map[Signal]Signal)
	piIndex := make(map[Signal]int, src.NumPI())
	for i := 0; i < src.NumPI(); i++ {
		piIndex[src.PISignal(i)] = i
	}
	var walk func(s Signal) Signal
	walk = func(s Signal) Signal {
		if d, ok := mapped[s]; ok {
			return d
		}
		n := src.Node(s)
		var d Signal
		switch n.Type {
		case PI:
			d = piSigs[piIndex[s]]
		case Const0:
			d = dst.Const(false)
		case Const1:
			d = dst.Const(true)
		case Not:
			d = dst.NotGate(walk(n.In0))
		case Buf:
			d = dst.BufGate(walk(n.In0))
		default:
			a := walk(n.In0)
			b := walk(n.In1)
			switch n.Type {
			case And:
				d = dst.And(a, b)
			case Or:
				d = dst.Or(a, b)
			case Xor:
				d = dst.Xor(a, b)
			case Nand:
				d = dst.Nand(a, b)
			case Nor:
				d = dst.Nor(a, b)
			default:
				d = dst.Xnor(a, b)
			}
		}
		mapped[s] = d
		return d
	}
	return walk(src.POSignal(po))
}

// SortedPINames returns the PI names in sorted order (helper for tests and
// deterministic reports).
func (c *Circuit) SortedPINames() []string {
	out := c.PINames()
	sort.Strings(out)
	return out
}
