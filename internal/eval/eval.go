// Package eval implements the contest accuracy measurement of Sec. V: the
// hit rate of a learned circuit against the golden black box over a test set
// split into three pools — assignments with a higher ratio of 1s, a higher
// ratio of 0s, and uniformly random assignments (the paper uses 500k of
// each). A hit requires ALL outputs to match on an assignment.
package eval

import (
	"fmt"
	"math/bits"
	"math/rand"

	"logicregression/internal/bitvec"
	"logicregression/internal/oracle"
	"logicregression/internal/sampling"
)

// evalChunk is the number of test patterns per oracle batch; a multiple of
// 64 so chunking never splits a pattern block.
const evalChunk = 1 << 13

// Config controls measurement.
type Config struct {
	// Patterns is the total number of test assignments (split in thirds
	// across the three pools). The paper uses 1_500_000.
	Patterns int
	// HighRatio is the 1-bias of the "more 1s" pool (default 0.75); the
	// "more 0s" pool uses its complement.
	HighRatio float64
	// Seed drives the test pattern generator.
	Seed int64
	// Directed additionally tests deterministic corner patterns before
	// the random pools: all-zeros, all-ones, walking-one and walking-zero.
	// The contest used purely random patterns, which cannot distinguish a
	// constant-0 circuit from a 2^-30-rare comparator (see EXPERIMENTS.md);
	// the corners catch exactly that class of miss.
	Directed bool
}

func (c Config) withDefaults() Config {
	if c.Patterns <= 0 {
		c.Patterns = 30000
	}
	if c.HighRatio == 0 {
		c.HighRatio = 0.75
	}
	return c
}

// Report is the measurement result.
type Report struct {
	// Patterns is the number of assignments tested.
	Patterns int
	// Hits counts assignments where every output matched.
	Hits int
	// Accuracy is Hits/Patterns (the contest hit rate), in [0,1].
	Accuracy float64
	// PerOutput is the per-output bit accuracy, useful for diagnosing
	// which learned output drags the hit rate down.
	PerOutput []float64
	// PoolAccuracy breaks the hit rate down by pool: high-1s, high-0s,
	// uniform.
	PoolAccuracy [3]float64
}

func (r Report) String() string {
	return fmt.Sprintf("accuracy %.3f%% (%d/%d)", r.Accuracy*100, r.Hits, r.Patterns)
}

// Measure compares the learned oracle against the golden one. The two must
// agree on arity; PO name order is assumed aligned (the learner preserves
// the golden output order).
func Measure(golden, learned oracle.Oracle, cfg Config) Report {
	if golden.NumInputs() != learned.NumInputs() || golden.NumOutputs() != learned.NumOutputs() {
		panic(fmt.Sprintf("eval: arity mismatch %d/%d vs %d/%d",
			golden.NumInputs(), golden.NumOutputs(), learned.NumInputs(), learned.NumOutputs()))
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := golden.NumInputs()
	nOut := golden.NumOutputs()

	rep := Report{PerOutput: make([]float64, nOut)}
	outMatches := make([]int, nOut)
	pools := [3]float64{cfg.HighRatio, 1 - cfg.HighRatio, 0.5}
	perPool := cfg.Patterns / 3
	poolHits := [3]int{}
	poolCounts := [3]int{}

	if cfg.Directed {
		// All corner patterns (2n+2 of them) go through in one batch query
		// per oracle instead of one scalar query per pattern.
		pats := directedPatterns(n)
		cnt := len(pats)
		w := oracle.Words(cnt)
		lanes := packAssignments(pats, n)
		g := golden.EvalBatch(lanes, cnt)
		l := learned.EvalBatch(lanes, cnt)
		for p := 0; p < cnt; p++ {
			hit := true
			for j := 0; j < nOut; j++ {
				gb := g[j*w+p/64] >> uint(p%64) & 1
				lb := l[j*w+p/64] >> uint(p%64) & 1
				if gb == lb {
					outMatches[j]++
				} else {
					hit = false
				}
			}
			if hit {
				rep.Hits++
			}
			rep.Patterns++
		}
	}
	for pool, bias := range pools {
		count := perPool
		if pool == 2 {
			count = cfg.Patterns - 2*perPool // absorb rounding
		}
		// Chunked batch evaluation: both oracles see whole pattern blocks
		// (one EvalBatch per chunk, not one per 64-pattern word), with
		// the random draws in exactly the per-block reference order.
		for done := 0; done < count; done += evalChunk {
			cnt := min(count-done, evalChunk)
			w := oracle.Words(cnt)
			lanes := make([]bitvec.Word, n*w)
			for b := 0; b < w; b++ {
				words := sampling.RandomWords(rng, n, bias, nil)
				for j, x := range words {
					lanes[j*w+b] = x
				}
			}
			g := golden.EvalBatch(lanes, cnt)
			l := learned.EvalBatch(lanes, cnt)
			for b := 0; b < w; b++ {
				batch := min(cnt-b*64, 64)
				var anyDiff uint64
				for j := 0; j < nOut; j++ {
					diff := g[j*w+b] ^ l[j*w+b]
					anyDiff |= diff
					outMatches[j] += batch - popcountMasked(diff, batch)
				}
				hits := batch - popcountMasked(anyDiff, batch)
				rep.Hits += hits
				poolHits[pool] += hits
				poolCounts[pool] += batch
				rep.Patterns += batch
			}
		}
	}
	if rep.Patterns > 0 {
		rep.Accuracy = float64(rep.Hits) / float64(rep.Patterns)
	}
	for j := range rep.PerOutput {
		rep.PerOutput[j] = float64(outMatches[j]) / float64(rep.Patterns)
	}
	for p := range pools {
		if poolCounts[p] > 0 {
			rep.PoolAccuracy[p] = float64(poolHits[p]) / float64(poolCounts[p])
		}
	}
	return rep
}

// directedPatterns yields the corner assignments: all-zeros, all-ones, a
// walking one, and a walking zero (2n+2 patterns).
// packAssignments bit-packs per-pattern assignments into batch input lanes.
func packAssignments(pats [][]bool, n int) []bitvec.Word {
	w := oracle.Words(len(pats))
	lanes := make([]bitvec.Word, n*w)
	for k, a := range pats {
		for j := 0; j < n; j++ {
			if a[j] {
				lanes[j*w+k/64] |= 1 << uint(k%64)
			}
		}
	}
	return lanes
}

func directedPatterns(n int) [][]bool {
	out := make([][]bool, 0, 2*n+2)
	zeros := make([]bool, n)
	ones := make([]bool, n)
	for i := range ones {
		ones[i] = true
	}
	out = append(out, zeros, ones)
	for i := 0; i < n; i++ {
		w1 := make([]bool, n)
		w1[i] = true
		w0 := make([]bool, n)
		copy(w0, ones)
		w0[i] = false
		out = append(out, w1, w0)
	}
	return out
}

func popcountMasked(x uint64, n int) int {
	if n < 64 {
		x &= 1<<uint(n) - 1
	}
	return bits.OnesCount64(x)
}
