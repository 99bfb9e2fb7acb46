package circuit

import (
	"strings"
	"testing"
)

// TestGateMaskRows evaluates one node of every GateType through the lane
// kernel on all four (a, b) combinations, against each type's truth table
// written out independently of the mask table.
func TestGateMaskRows(t *testing.T) {
	// Bits 0..3 of a lane are the patterns (a,b) = 00, 10, 01, 11.
	const aBits, bBits = 0b1010, 0b1100
	want := map[GateType]uint64{
		Const0: 0b0000,
		Const1: 0b1111,
		Not:    0b0101,
		Buf:    0b1010,
		And:    0b1000,
		Or:     0b1110,
		Xor:    0b0110,
		Nand:   0b0111,
		Nor:    0b0001,
		Xnor:   0b1001,
	}
	if len(want)+1 != len(gateMasks) { // +1: PI has no row to evaluate
		t.Fatalf("gate table has %d rows, the test covers %d types", len(gateMasks), len(want)+1)
	}
	for gt := PI + 1; int(gt) < len(gateMasks); gt++ {
		nodes := []Node{{Type: PI}, {Type: PI}, {Type: gt, In0: 0, In1: 1}}
		c := FromNodes(nodes, []string{"a", "b"}, []Signal{0, 1}, []string{"z"}, []Signal{2})
		// Two words per lane: the second holds the complemented inputs, so
		// the multi-word path sees the row too.
		in := []uint64{aBits, ^uint64(aBits), bBits, ^uint64(bBits)}
		out := make([]uint64, 2)
		c.EvalLanes(in, 2, out, make([]uint64, c.LaneScratch(2)))
		if got := out[0] & 0b1111; got != want[gt] {
			t.Errorf("%v: truth table %04b, want %04b", gt, got, want[gt])
		}
		// The second word has a and b complemented: pattern (a,b) there is
		// pattern (^a,^b) of the first, i.e. bit k maps to bit 3-k.
		var rev uint64
		for k := 0; k < 4; k++ {
			rev |= (want[gt] >> (3 - k) & 1) << k
		}
		if got := out[1] & 0b1111; got != rev {
			t.Errorf("%v: complemented truth table %04b, want %04b", gt, got, rev)
		}
		// Above bit 3 both inputs are 0: every bit there is f(0, 0).
		if hi, f00 := out[0]>>4, want[gt]&1; hi != f00*(^uint64(0)>>4) {
			t.Errorf("%v: bits above the patterns %x, want f(0,0) = %d throughout", gt, hi, f00)
		}
	}
}

// TestEvalLanesRejectsUnknownGate: a node type outside the table is a
// corrupt circuit, reported by name rather than evaluated.
func TestEvalLanesRejectsUnknownGate(t *testing.T) {
	c := FromNodes([]Node{{Type: PI}, {Type: GateType(len(gateMasks)), In0: 0, In1: 0}},
		[]string{"a"}, []Signal{0}, []string{"z"}, []Signal{1})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "unknown gate type") {
			t.Fatalf("panic %q, want an unknown-gate-type report", msg)
		}
	}()
	c.EvalWords([]uint64{1})
}

// TestLaneTile pins the tile sizing: laneTileBytes of values per tile,
// 8 bytes per node and word, clamped to [1, w].
func TestLaneTile(t *testing.T) {
	for _, tc := range []struct{ nodes, w, want int }{
		{6873, 1 << 20, laneTileBytes / (8 * 6873)},
		{6873, 10, 10},
		{6873, 0, 1},
		{1, 1 << 30, laneTileBytes / 8},
		{0, 5, 5},
		{laneTileBytes, 4, 1},
	} {
		if got := laneTile(tc.nodes, tc.w); got != tc.want {
			t.Errorf("laneTile(%d, %d) = %d, want %d", tc.nodes, tc.w, got, tc.want)
		}
	}
	if laneTileBytes != 2<<20 {
		t.Fatalf("laneTileBytes = %d, want 2 MiB", laneTileBytes)
	}
	c := New()
	a := c.AddPI("a")
	c.AddPO("z", c.NotGate(a))
	if got := c.LaneScratch(7); got != 7*2 {
		t.Fatalf("LaneScratch(7) on 2 nodes = %d, want 14", got)
	}
}

// TestEvalLanesRejectsShortBuffers: the prologue refuses lanes and scratch
// shorter than the geometry asks for, instead of reading past them.
func TestEvalLanesRejectsShortBuffers(t *testing.T) {
	c := New()
	a, b := c.AddPI("a"), c.AddPI("b")
	c.AddPO("z", c.And(a, b))
	for _, tc := range []struct {
		name             string
		in, out, scratch int
		w                int
	}{
		{"zero width", 0, 0, 3, 0},
		{"short input", 3, 2, 6, 2},
		{"short output", 4, 1, 6, 2},
		{"short scratch", 4, 2, 5, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			c.EvalLanes(make([]uint64, tc.in), tc.w, make([]uint64, tc.out), make([]uint64, tc.scratch))
		})
	}
	// The exact geometry is accepted.
	c.EvalLanes(make([]uint64, 4), 2, make([]uint64, 2), make([]uint64, 6))
}
