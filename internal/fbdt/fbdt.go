// Package fbdt implements the free-binary-decision-tree circuit learning
// procedure of Sec. IV-D (Algorithm 2 of the paper).
//
// The tree is explored in levelized (breadth-first) order. Each node carries
// a cube of already-decided literals; PatternSampling constrained by that
// cube estimates the node function's TruthRatio and the dependency counts of
// the remaining inputs. Nodes whose sampled TruthRatio reaches 0% or 100%
// (within Config.LeafEpsilon, the paper's early-stopping trick) become
// leaves; otherwise the node splits on the most significant input. On
// timeout or node-budget exhaustion, pending nodes become approximate leaves
// by majority value, preserving the paper's anytime behaviour.
//
// The package also implements the "conquering small functions" trick:
// when the identified support is small, Exhaustive enumerates the whole
// subfunction truth table instead of growing a tree.
package fbdt

import (
	"math/bits"
	"math/rand"
	"time"

	"logicregression/internal/bdd"
	"logicregression/internal/oracle"
	"logicregression/internal/sampling"
	"logicregression/internal/sop"
)

// Config controls tree construction.
type Config struct {
	// R is the number of sampled patterns per candidate input per node
	// (paper: 60).
	R int
	// Ratios is the sampling bias pool; empty means sampling.DefaultRatios.
	Ratios []float64
	// LeafEpsilon declares a node a leaf when its TruthRatio is <= eps or
	// >= 1-eps. Zero demands exact constancy among samples (the paper's
	// base rule); positive values implement early stopping (trick 3).
	LeafEpsilon float64
	// Candidates restricts split variables, typically to the support S'
	// identified beforehand. Nil means all inputs.
	Candidates []int
	// MaxDepth bounds the cube length; 0 means unbounded (the candidate
	// count is the natural bound).
	MaxDepth int
	// MaxNodes bounds the number of expanded (split) nodes; 0 = unbounded.
	MaxNodes int
	// Deadline is the wall-clock limit of Algorithm 2; zero means none.
	Deadline time.Time
	// ExhaustiveThreshold, when > 0 and the candidate set is at most this
	// large, switches to exhaustive truth-table enumeration (trick 1;
	// paper: 18).
	ExhaustiveThreshold int
	// ProbeR is the number of direct samples used to estimate a node's
	// TruthRatio when no free candidate inputs remain (the candidate set
	// underapproximated the true support). 0 defaults to 64.
	ProbeR int
	// DepthFirst explores the tree depth-first instead of the paper's
	// levelized (breadth-first) order. The paper reports that exploring
	// evenly is more beneficial under truncation — this knob exists to
	// reproduce that comparison (see the E3 ablation).
	DepthFirst bool
}

func (c Config) probeR() int {
	if c.ProbeR <= 0 {
		return 64
	}
	return c.ProbeR
}

// Stats reports how construction went.
type Stats struct {
	NodesExpanded   int  // nodes split into two children
	Leaves1         int  // exact 1-leaves
	Leaves0         int  // exact 0-leaves
	ApproxLeaves    int  // nodes truncated by timeout/budget, majority-voted
	MaxDepthReached int  // deepest cube length seen
	Exhausted       bool // true when timeout/budget truncated the build
	Exhaustive      bool // true when the exhaustive path was taken
}

// Result carries both cube sets so the caller can apply the paper's
// onset/offset selection (trick 2).
type Result struct {
	Onset  sop.Cover // cubes of leaves with function 1
	Offset sop.Cover // cubes of leaves with function 0
	// RootTruthRatio is the TruthRatio observed at the root, used for the
	// onset/offset choice.
	RootTruthRatio float64
	Stats          Stats
}

// Choose applies trick 2: it returns the smaller cover and whether the
// synthesized circuit must be negated (true when the offset was chosen,
// since the offset cover describes where the function is 0).
func (r Result) Choose() (cover sop.Cover, negate bool) {
	if len(r.Offset) < len(r.Onset) {
		return r.Offset, true
	}
	if len(r.Onset) < len(r.Offset) {
		return r.Onset, false
	}
	// Tie: follow the paper's tendency rule — if the output produces more
	// 1s, specify the offset (the smaller part of the space), else onset.
	if r.RootTruthRatio > 0.5 {
		return r.Offset, true
	}
	return r.Onset, false
}

// Build runs Algorithm 2 for output index out of the oracle.
func Build(o oracle.Oracle, out int, cfg Config, rng *rand.Rand) Result {
	if cfg.ExhaustiveThreshold > 0 {
		cand := cfg.Candidates
		if cand == nil {
			for i := 0; i < o.NumInputs(); i++ {
				cand = append(cand, i)
			}
		}
		if len(cand) <= cfg.ExhaustiveThreshold {
			return Exhaustive(o, out, cand, rng)
		}
	}

	var res Result
	queue := []sop.Cube{nil} // root: empty cube
	first := true
	for len(queue) > 0 {
		var cube sop.Cube
		if cfg.DepthFirst {
			cube = queue[len(queue)-1]
			queue = queue[:len(queue)-1]
		} else {
			cube = queue[0]
			queue = queue[1:]
		}
		if len(cube) > res.Stats.MaxDepthReached {
			res.Stats.MaxDepthReached = len(cube)
		}

		// Budget check happens BEFORE the per-input dependency sampling:
		// once the deadline or node budget is gone, every pending node is
		// settled with a cheap direct probe instead of the full
		// PatternSampling sweep (Algorithm 2's anytime truncation).
		overBudget := (cfg.MaxNodes > 0 && res.Stats.NodesExpanded >= cfg.MaxNodes) ||
			(!cfg.Deadline.IsZero() && time.Now().After(cfg.Deadline)) ||
			(cfg.MaxDepth > 0 && len(cube) >= cfg.MaxDepth)
		if overBudget {
			tr := probeTruthRatio(o, out, cube, cfg.probeR(), rng)
			if first {
				res.RootTruthRatio = tr
				first = false
			}
			if tr > 0.5 {
				res.Onset = append(res.Onset, cube)
			} else {
				res.Offset = append(res.Offset, cube)
			}
			res.Stats.ApproxLeaves++
			res.Stats.Exhausted = true
			continue
		}

		s := sampling.PatternSampling(o, out, cube, sampling.Config{
			R: cfg.R, Ratios: cfg.Ratios, Candidates: cfg.Candidates,
		}, rng)
		tr := s.TruthRatio
		if s.Samples == 0 {
			// Every candidate is bound: estimate the residual function
			// directly under the cube.
			tr = probeTruthRatio(o, out, cube, cfg.probeR(), rng)
		}
		if first {
			res.RootTruthRatio = tr
			first = false
		}

		switch {
		case tr >= 1-cfg.LeafEpsilon:
			res.Onset = append(res.Onset, cube)
			res.Stats.Leaves1++
			continue
		case tr <= cfg.LeafEpsilon:
			res.Offset = append(res.Offset, cube)
			res.Stats.Leaves0++
			continue
		}

		mi, _, ok := s.MostSignificant()
		if !ok {
			// Truncate: majority-vote the node (Algorithm 2 lines 10-13).
			if tr > 0.5 {
				res.Onset = append(res.Onset, cube)
			} else {
				res.Offset = append(res.Offset, cube)
			}
			res.Stats.ApproxLeaves++
			continue
		}

		res.Stats.NodesExpanded++
		queue = append(queue,
			cube.With(sop.Literal{Var: mi, Neg: true}),
			cube.With(sop.Literal{Var: mi, Neg: false}),
		)
	}
	return res
}

// probeTruthRatio samples r assignments satisfying the cube and returns the
// fraction of 1s at the output. All r patterns go to the oracle as one batch.
func probeTruthRatio(o oracle.Oracle, out int, cube sop.Cube, r int, rng *rand.Rand) float64 {
	if r <= 0 {
		return 0
	}
	ratios := sampling.DefaultRatios
	n := o.NumInputs()
	w := oracle.Words(r)
	lanes := make([]uint64, n*w)
	for b := 0; b < w; b++ {
		words := sampling.RandomWords(rng, n, ratios[b%len(ratios)], cube)
		for j, x := range words {
			lanes[j*w+b] = x
		}
	}
	got := o.EvalBatch(lanes, r)[out*w : (out+1)*w]
	ones, total := 0, 0
	for b := 0; b < w; b++ {
		batch := min(r-b*64, 64)
		ones += bits.OnesCount64(got[b] & maskLow(batch))
		total += batch
	}
	return float64(ones) / float64(total)
}

func maskLow(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// Exhaustive implements trick 1: it enumerates all 2^|sup| assignments over
// the support, with every other input held at 0, and extracts compact
// onset/offset covers from the resulting truth table. The primary extractor
// collapses the table into a BDD and runs Minato-Morreale ISOP on it (the
// quality step the paper gets from ABC's collapse); if the diagram blows its
// node budget, a plain minterm cover with fast two-level reduction is the
// fallback. The caller guarantees len(sup) is small (<= ~20); the query
// count is 2^|sup|.
func Exhaustive(o oracle.Oracle, out int, sup []int, rng *rand.Rand) Result {
	res := Result{Stats: Stats{Exhaustive: true}}
	n := o.NumInputs()
	k := len(sup)
	total := uint64(1) << uint(k)

	ones := uint64(0)
	table := make([]bool, total)
	for base := uint64(0); base < total; base += exhaustiveChunk {
		count := min(total-base, exhaustiveChunk)
		w := oracle.Words(int(count))
		lanes := make([]uint64, n*w) // non-support inputs held at 0
		for pat := uint64(0); pat < count; pat++ {
			m := base + pat
			for b, in := range sup {
				if m>>uint(b)&1 == 1 {
					lanes[in*w+int(pat>>6)] |= 1 << (pat & 63)
				}
			}
		}
		got := o.EvalBatch(lanes, int(count))[out*w : (out+1)*w]
		for pat := uint64(0); pat < count; pat++ {
			if got[pat>>6]>>(pat&63)&1 == 1 {
				table[base+pat] = true
				ones++
			}
		}
	}
	if total > 0 {
		res.RootTruthRatio = float64(ones) / float64(total)
	}

	// Primary: BDD collapse + ISOP over the support variables.
	mgr := bdd.NewManager(n, exhaustiveBDDBudget)
	err := mgr.Guard(func() {
		root := bdd.FromTruthTable(mgr, table, sup)
		res.Onset = mgr.ISOP(root)
		res.Offset = mgr.ISOP(mgr.Not(root))
	})
	if err != nil {
		// Fallback: explicit minterm covers with fast reduction.
		res.Onset, res.Offset = nil, nil
		for m := uint64(0); m < total; m++ {
			if table[m] {
				res.Onset = append(res.Onset, mintermCube(sup, m))
			} else {
				res.Offset = append(res.Offset, mintermCube(sup, m))
			}
		}
		res.Onset = sop.Minimize(res.Onset)
		res.Offset = sop.Minimize(res.Offset)
	}
	res.Stats.Leaves1 = len(res.Onset)
	res.Stats.Leaves0 = len(res.Offset)
	return res
}

// exhaustiveBDDBudget bounds the BDD used to collapse exhaustive truth
// tables; overridable in tests to exercise the minterm fallback.
var exhaustiveBDDBudget = 1 << 22

// exhaustiveChunk is the number of patterns per oracle batch when
// enumerating exhaustive truth tables, bounding the lane buffer to
// |I| * chunk/64 words while still amortizing per-query overhead.
const exhaustiveChunk = 1 << 14

func mintermCube(sup []int, m uint64) sop.Cube {
	lits := make([]sop.Literal, len(sup))
	for b, in := range sup {
		lits[b] = sop.Literal{Var: in, Neg: m>>uint(b)&1 == 0}
	}
	cube, ok := sop.NewCube(lits...)
	if !ok {
		panic("fbdt: duplicate support input")
	}
	return cube
}
