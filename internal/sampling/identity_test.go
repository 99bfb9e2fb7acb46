package sampling

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"logicregression/internal/bitvec"
	"logicregression/internal/cases"
	"logicregression/internal/oracle"
	"logicregression/internal/sop"
)

// referencePatternSampling is the per-input PatternSampling loop that the
// one-batch sweep replaced: for each free input it draws that input's R
// patterns (block-major, one bias ratio per block, tail bits drawn and
// dropped) and issues two batches, alpha_i and alpha_not_i. It stays here as
// the identity reference for PatternSampling.
func referencePatternSampling(o oracle.Oracle, out int, cube sop.Cube, cfg Config, rng *rand.Rand) Result {
	n := o.NumInputs()
	res := Result{D: make([]int, n)}
	constrained := make([]bool, n)
	for _, l := range cube {
		constrained[l.Var] = true
		res.D[l.Var] = -1
	}
	inCand := make([]bool, n)
	for _, i := range cfg.Candidates {
		inCand[i] = true
	}
	for i := 0; i < n; i++ {
		if !constrained[i] && (cfg.Candidates == nil || inCand[i]) {
			res.Free = append(res.Free, i)
		}
	}
	if cfg.R <= 0 || len(res.Free) == 0 {
		return res
	}

	ratios := cfg.ratios()
	words := (cfg.R + 63) / 64
	ones := 0
	ratioIdx := 0
	b := o
	lanes := make([]uint64, n*words)
	for _, i := range res.Free {
		for w := 0; w < words; w++ {
			p := ratios[ratioIdx%len(ratios)]
			ratioIdx++
			for j := 0; j < n; j++ {
				lanes[j*words+w] = BiasedWord(rng, p)
			}
			for _, l := range cube {
				if l.Neg {
					lanes[l.Var*words+w] = 0
				} else {
					lanes[l.Var*words+w] = ^uint64(0)
				}
			}
		}
		lane := lanes[i*words : (i+1)*words]
		for w := range lane {
			lane[w] = ^uint64(0)
		}
		out1 := b.EvalBatch(lanes, cfg.R)[out*words : (out+1)*words]
		for w := range lane {
			lane[w] = 0
		}
		out0 := b.EvalBatch(lanes, cfg.R)[out*words : (out+1)*words]

		remaining := cfg.R
		for w := 0; w < words; w++ {
			batch := min(remaining, 64)
			remaining -= batch
			mask := maskLow(batch)
			res.D[i] += popcount((out1[w] ^ out0[w]) & mask)
			ones += popcount(out1[w]&mask) + popcount(out0[w]&mask)
			res.Samples += 2 * batch
		}
	}
	if res.Samples > 0 {
		res.TruthRatio = float64(ones) / float64(res.Samples)
	}
	return res
}

// TestPatternSamplingMatchesReference pins the one-batch sweep to the
// per-input reference on three Table II cases: an identical Result, the RNG
// left in the same state, and exactly 2*R*|Free| queries charged.
func TestPatternSamplingMatchesReference(t *testing.T) {
	for _, name := range []string{"case_5", "case_9", "case_18"} {
		c, err := cases.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		o := oracle.FromCircuit(c.Circuit)
		nIn, nOut := o.NumInputs(), o.NumOutputs()
		cube, ok := sop.NewCube(sop.Literal{Var: 1, Neg: false}, sop.Literal{Var: nIn - 2, Neg: true})
		if !ok {
			t.Fatal("contradictory test cube")
		}
		var cands []int
		for i := 0; i < nIn; i += 3 {
			cands = append(cands, i)
		}
		for _, r := range []int{1, 60, 63, 64, 65, 768} {
			for _, tc := range []struct {
				label string
				cube  sop.Cube
				cands []int
			}{
				{"free", nil, nil},
				{"cube", cube, nil},
				{"candidates", nil, cands},
				{"cube+candidates", cube, cands},
			} {
				t.Run(fmt.Sprintf("%s/R=%d/%s", name, r, tc.label), func(t *testing.T) {
					po := (r + len(tc.label)) % nOut
					cfg := Config{R: r, Candidates: tc.cands}
					refRNG := rand.New(rand.NewSource(int64(r) + 17))
					gotRNG := rand.New(rand.NewSource(int64(r) + 17))
					want := referencePatternSampling(o, po, tc.cube, cfg, refRNG)
					counter := oracle.NewCounter(o)
					got := PatternSampling(counter, po, tc.cube, cfg, gotRNG)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("Result differs from the reference:\n got  %+v\n want %+v", got, want)
					}
					if g, w := gotRNG.Int63(), refRNG.Int63(); g != w {
						t.Fatalf("RNG state differs after the sweep: next Int63 %d, reference %d", g, w)
					}
					if q, w := counter.Queries(), int64(2*r*len(want.Free)); q != w {
						t.Fatalf("Counter charged %d queries, want 2*R*|Free| = %d", q, w)
					}
				})
			}
		}
	}
}

// queryLog is an oracle that records every assignment it is asked, in
// pattern order.
type queryLog struct {
	oracle.Oracle
	keys []string
}

func (q *queryLog) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	w := oracle.Words(n)
	a := make([]bool, q.NumInputs())
	for k := 0; k < n; k++ {
		for i := range a {
			a[i] = patterns[i*w+k>>6]>>(uint(k)&63)&1 == 1
		}
		q.keys = append(q.keys, oracle.MemoKey(a))
	}
	return q.Oracle.EvalBatch(patterns, n)
}

// TestPatternSamplingScalarQueryOrder: a scalar black box sees the same
// queries in the same order from the one-batch sweep as from the per-input
// reference (alpha_i then alpha_not_i, input by input), so transcripts and
// memo logs of a learn do not change.
func TestPatternSamplingScalarQueryOrder(t *testing.T) {
	c, err := cases.ByName("case_5")
	if err != nil {
		t.Fatal(err)
	}
	o := oracle.FromCircuit(c.Circuit)
	cube, _ := sop.NewCube(sop.Literal{Var: 4, Neg: true})
	for _, r := range []int{1, 65} {
		ref, got := &queryLog{Oracle: o}, &queryLog{Oracle: o}
		referencePatternSampling(ref, 0, cube, Config{R: r}, rand.New(rand.NewSource(5)))
		PatternSampling(got, 0, cube, Config{R: r}, rand.New(rand.NewSource(5)))
		if !reflect.DeepEqual(got.keys, ref.keys) {
			t.Fatalf("R=%d: the sweep asked %d queries in a different order from the reference's %d", r, len(got.keys), len(ref.keys))
		}
	}
}
