package circuit_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"logicregression/internal/cases"
	"logicregression/internal/circuit"
)

// refEval is an interpreter independent of the simulation kernel: one
// switch per node, one pattern at a time. It is the scalar reference the
// lane kernel is checked against.
func refEval(c *circuit.Circuit, assign []bool) []bool {
	vals := make([]bool, c.NumNodes())
	for i := range assign {
		vals[c.PISignal(i)] = assign[i]
	}
	for id := 0; id < c.NumNodes(); id++ {
		n := c.Node(id)
		a, b := vals[n.In0], vals[n.In1]
		switch n.Type {
		case circuit.PI:
		case circuit.Const0:
			vals[id] = false
		case circuit.Const1:
			vals[id] = true
		case circuit.Not:
			vals[id] = !a
		case circuit.Buf:
			vals[id] = a
		case circuit.And:
			vals[id] = a && b
		case circuit.Or:
			vals[id] = a || b
		case circuit.Xor:
			vals[id] = a != b
		case circuit.Nand:
			vals[id] = !(a && b)
		case circuit.Nor:
			vals[id] = !(a || b)
		case circuit.Xnor:
			vals[id] = a == b
		default:
			panic(fmt.Sprintf("refEval: gate type %v", n.Type))
		}
	}
	out := make([]bool, c.NumPO())
	for j := range out {
		out[j] = vals[c.POSignal(j)]
	}
	return out
}

// TestEvalLanesParityAllCases checks the tiled lane kernel on every Table
// II case at the widths where tiling can go wrong: one word, exactly one
// tile, one tile and a word, and several tiles with a ragged last tile.
// Every word of the batch must equal the single-word evaluation of that
// word, and sampled patterns (first and last of each tile, and random
// ones) must match both Eval and the independent reference interpreter.
func TestEvalLanesParityAllCases(t *testing.T) {
	for _, cs := range cases.All() {
		c := cs.Circuit
		t.Run(cs.Name, func(t *testing.T) {
			t.Parallel()
			nIn, nOut := c.NumPI(), c.NumPO()
			tile := c.LaneScratch(math.MaxInt) / c.NumNodes()
			rng := rand.New(rand.NewSource(int64(c.NumNodes())))
			for _, w := range []int{1, tile, tile + 1, 3*tile + 5} {
				in := make([]uint64, nIn*w)
				for i := range in {
					in[i] = rng.Uint64()
				}
				out := make([]uint64, nOut*w)
				scratch := make([]uint64, c.LaneScratch(w))
				for i := range scratch {
					scratch[i] = rng.Uint64() // stale scratch must not leak into results
				}
				c.EvalLanes(in, w, out, scratch)

				word := make([]uint64, nIn)
				for b := 0; b < w; b++ {
					for i := range word {
						word[i] = in[i*w+b]
					}
					want := c.EvalWords(word)
					for j := range want {
						if out[j*w+b] != want[j] {
							t.Fatalf("w=%d: output %d word %d: lanes %016x, EvalWords %016x", w, j, b, out[j*w+b], want[j])
						}
					}
				}

				var probes []int
				for b := 0; b < w; b += tile {
					probes = append(probes, 64*b, 64*min(b+tile, w)-1)
				}
				for k := 0; k < 16; k++ {
					probes = append(probes, rng.Intn(64*w))
				}
				assign := make([]bool, nIn)
				for _, k := range probes {
					for i := range assign {
						assign[i] = in[i*w+k/64]>>(k%64)&1 == 1
					}
					ref, scalar := refEval(c, assign), c.Eval(assign)
					for j := range ref {
						got := out[j*w+k/64]>>(k%64)&1 == 1
						if got != ref[j] || scalar[j] != ref[j] {
							t.Fatalf("w=%d pattern %d output %d: lanes %v, Eval %v, reference %v", w, k, j, got, scalar[j], ref[j])
						}
					}
				}
			}
		})
	}
}

// TestEvalLanesGrowingCircuit evaluates a circuit, grows it, rebinds a PO
// and evaluates again with the same scratch buffer resized as LaneScratch
// asks: the kernel holds no state between calls.
func TestEvalLanesGrowingCircuit(t *testing.T) {
	c := circuit.New()
	a, b, d := c.AddPI("a"), c.AddPI("b"), c.AddPI("d")
	c.AddPO("x", c.Xor(a, b))
	const w = 3
	in := []uint64{
		0xf0f0, 1, 2, // a
		0xff00, 3, 4, // b
		0xaaaa, 5, 6, // d
	}
	check := func(stage string) {
		t.Helper()
		out := make([]uint64, c.NumPO()*w)
		c.EvalLanes(in, w, out, make([]uint64, c.LaneScratch(w)))
		assign := make([]bool, c.NumPI())
		for k := 0; k < 64*w; k++ {
			for i := range assign {
				assign[i] = in[i*w+k/64]>>(k%64)&1 == 1
			}
			for j, want := range refEval(c, assign) {
				if got := out[j*w+k/64]>>(k%64)&1 == 1; got != want {
					t.Fatalf("%s: pattern %d output %d = %v, want %v", stage, k, j, got, want)
				}
			}
		}
	}
	check("initial")
	c.AddPO("y", c.Nor(c.And(a, d), c.NotGate(b)))
	check("grown")
	c.SetPODriver(0, c.Xnor(c.Or(a, d), c.Const(true)))
	check("rebound")
}

// BenchmarkEvalLanes times the lane kernel at the three batch shapes the
// learner issues: one FBDT node's sweep of a single input (60 patterns), a
// typical FBDT node's whole PatternSampling sweep (2,160), and support
// identification over case_9's 173 inputs at R = 768 (265,728).
func BenchmarkEvalLanes(b *testing.B) {
	for _, name := range []string{"case_9", "case_17"} {
		cs, err := cases.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		c := cs.Circuit
		for _, n := range []int{60, 2160, 265728} {
			b.Run(fmt.Sprintf("%s/%d", name, n), func(b *testing.B) {
				w := (n + 63) / 64
				rng := rand.New(rand.NewSource(1))
				in := make([]uint64, c.NumPI()*w)
				for i := range in {
					in[i] = rng.Uint64()
				}
				out := make([]uint64, c.NumPO()*w)
				scratch := make([]uint64, c.LaneScratch(w))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.EvalLanes(in, w, out, scratch)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(w*c.NumNodes()), "ns/node-word")
			})
		}
	}
}
