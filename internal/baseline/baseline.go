// Package baseline implements the two comparison learners used in the
// Table II reproduction as stand-ins for the contest's second-place entries
// (whose executables are unavailable; see DESIGN.md):
//
//   - FixedOrderTree: a decision-tree learner without any preprocessing,
//     support identification, or input-significance ranking — it splits on
//     inputs in fixed index order. It exhibits the failure mode the paper
//     reports for weaker entries: circuit blow-up and accuracy loss on
//     template-matchable and wide-support functions.
//
//   - SampleSOP: a sample-memorizing learner that stores observed minterms
//     of the minority output class verbatim and answers the majority value
//     elsewhere, mimicking entries whose circuits grew into the hundreds of
//     thousands of gates with sub-99% accuracy.
package baseline

import (
	"math/rand"
	"time"

	"logicregression/internal/circuit"
	"logicregression/internal/oracle"
	"logicregression/internal/sampling"
	"logicregression/internal/sop"
)

// Result is a baseline learning outcome.
type Result struct {
	Circuit *circuit.Circuit
	Queries int64
	Elapsed time.Duration
	// Truncated reports whether any per-output budget was exhausted.
	Truncated bool
}

// TreeOptions configures FixedOrderTree.
type TreeOptions struct {
	// Seed drives sampling.
	Seed int64
	// R is the number of probes per node to estimate constancy.
	R int
	// MaxNodes bounds split nodes per output.
	MaxNodes int
	// Deadline bounds the whole learn (zero = none).
	Deadline time.Time
}

func (o TreeOptions) withDefaults() TreeOptions {
	if o.R <= 0 {
		o.R = 64
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 4000
	}
	return o
}

// FixedOrderTree learns each output with a BFS decision tree that always
// splits on the lowest-index unbound input.
func FixedOrderTree(o oracle.Oracle, opts TreeOptions) *Result {
	opts = opts.withDefaults()
	start := time.Now()
	rng := rand.New(rand.NewSource(opts.Seed))
	counter := oracle.NewCounter(o)
	n := counter.NumInputs()

	c := circuit.New()
	piSigs := make([]circuit.Signal, n)
	for i, name := range counter.InputNames() {
		piSigs[i] = c.AddPI(name)
	}
	res := &Result{}
	for po := 0; po < counter.NumOutputs(); po++ {
		var onset sop.Cover
		queue := []sop.Cube{nil}
		nodes := 0
		for len(queue) > 0 {
			cube := queue[0]
			queue = queue[1:]
			ones, total := probe(counter, po, cube, opts.R, rng)
			switch {
			case ones == total: // constant 1
				onset = append(onset, cube)
				continue
			case ones == 0:
				continue
			}
			over := nodes >= opts.MaxNodes ||
				(!opts.Deadline.IsZero() && time.Now().After(opts.Deadline)) ||
				len(cube) >= n
			if over {
				res.Truncated = true
				if 2*ones > total {
					onset = append(onset, cube)
				}
				continue
			}
			// Split on the lowest-index unbound input: no significance
			// ranking whatsoever.
			next := -1
			for v := 0; v < n; v++ {
				if _, bound := cube.Has(v); !bound {
					next = v
					break
				}
			}
			if next < 0 {
				if 2*ones > total {
					onset = append(onset, cube)
				}
				continue
			}
			nodes++
			queue = append(queue,
				cube.With(sop.Literal{Var: next, Neg: true}),
				cube.With(sop.Literal{Var: next, Neg: false}),
			)
		}
		c.AddPO(counter.OutputNames()[po], sop.Synthesize(c, onset, piSigs, false))
	}
	res.Circuit = c
	res.Queries = counter.Queries()
	res.Elapsed = time.Since(start)
	return res
}

// probe samples r assignments under the cube and counts output ones.
func probe(o oracle.Oracle, po int, cube sop.Cube, r int, rng *rand.Rand) (ones, total int) {
	ratios := sampling.DefaultRatios
	n := o.NumInputs()
	for done := 0; done < r; done += 64 {
		batch := min(r-done, 64)
		words := sampling.RandomWords(rng, n, ratios[(done/64)%len(ratios)], cube)
		got := o.EvalBatch(words, 64)[po]
		for k := 0; k < batch; k++ {
			if got>>uint(k)&1 == 1 {
				ones++
			}
		}
		total += batch
	}
	return ones, total
}

// SOPOptions configures SampleSOP.
type SOPOptions struct {
	// Seed drives sampling.
	Seed int64
	// Samples is the number of training assignments drawn (per learn, not
	// per output; all outputs are read from the same samples).
	Samples int
}

func (o SOPOptions) withDefaults() SOPOptions {
	if o.Samples <= 0 {
		o.Samples = 4096
	}
	return o
}

// SampleSOP memorizes sampled minterms: for each output it stores the full
// input minterm of every minority-class sample and defaults to the majority
// value elsewhere.
func SampleSOP(o oracle.Oracle, opts SOPOptions) *Result {
	opts = opts.withDefaults()
	start := time.Now()
	rng := rand.New(rand.NewSource(opts.Seed))
	counter := oracle.NewCounter(o)
	n := counter.NumInputs()
	nOut := counter.NumOutputs()

	type sample struct {
		in  []bool
		out []bool
	}
	ratios := sampling.DefaultRatios
	samples := make([]sample, 0, opts.Samples)
	for k := 0; k < opts.Samples; k++ {
		a := sampling.RandomAssignment(rng, n, ratios[k%len(ratios)], nil)
		samples = append(samples, sample{in: a, out: oracle.Eval(counter, a)})
	}

	c := circuit.New()
	piSigs := make([]circuit.Signal, n)
	for i, name := range counter.InputNames() {
		piSigs[i] = c.AddPI(name)
	}
	for po := 0; po < nOut; po++ {
		ones := 0
		for _, s := range samples {
			if s.out[po] {
				ones++
			}
		}
		majority := 2*ones > len(samples)
		var cover sop.Cover
		seen := make(map[string]bool)
		for _, s := range samples {
			if s.out[po] == majority {
				continue
			}
			lits := make([]sop.Literal, n)
			for v := 0; v < n; v++ {
				lits[v] = sop.Literal{Var: v, Neg: !s.in[v]}
			}
			cube, _ := sop.NewCube(lits...)
			if key := cube.Key(); !seen[key] {
				seen[key] = true
				cover = append(cover, cube)
			}
		}
		// The cover fires on minority minterms; default is the majority.
		c.AddPO(counter.OutputNames()[po], sop.Synthesize(c, cover, piSigs, majority))
	}
	return &Result{
		Circuit: c,
		Queries: counter.Queries(),
		Elapsed: time.Since(start),
	}
}
