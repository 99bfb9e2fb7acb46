// Package support implements support identification (Sec. IV-C): estimating
// which primary inputs a black-box output actually depends on, using the
// dependency counts produced by PatternSampling.
//
// Because the generator is a black box, only an underapproximation S' ⊆ S is
// obtainable (Proposition 1): an input proven relevant by a witness
// assignment pair is in S; absence of a witness under r samples is taken as
// irrelevance. The combined even/uneven sampling pool improves recall on
// outputs that are only sensitive under skewed input distributions.
//
// The dependency counts come from PatternSampling, which issues its 2*r*|I|
// probe queries as lane-packed batches (Oracle.EvalBatch):
// identification against a remote or cached black box costs a handful of
// round trips per input instead of one per assignment. Witness blocks its
// base/toggled probe pairs the same way.
package support

import (
	"math/rand"
	"sort"

	"logicregression/internal/bitvec"
	"logicregression/internal/oracle"
	"logicregression/internal/sampling"
)

// Config controls support identification.
type Config struct {
	// R is the number of sampled assignments per input (paper: 7200).
	R int
	// Ratios is the bias pool; empty means sampling.DefaultRatios.
	Ratios []float64
	// Rounds runs the identification this many times with fresh patterns,
	// unioning the discovered supports (diminishing-returns insurance
	// against unlucky pattern sets). 0 means 1.
	Rounds int
}

// Info is the identification result for one output.
type Info struct {
	// Support is S', ascending input indices with nonzero dependency count.
	Support []int
	// D holds the accumulated dependency counts per input.
	D []int
	// TruthRatio is the observed fraction of 1s over all rounds.
	TruthRatio float64
}

// MostSignificant returns the input with the highest dependency count, or
// ok=false when the support is empty.
func (s Info) MostSignificant() (input int, ok bool) {
	best, bestD := -1, 0
	for _, i := range s.Support {
		if s.D[i] > bestD {
			best, bestD = i, s.D[i]
		}
	}
	return best, best >= 0
}

// Identify estimates the support of oracle output out.
func Identify(o oracle.Oracle, out int, cfg Config, rng *rand.Rand) Info {
	rounds := max(cfg.Rounds, 1)
	info := Info{D: make([]int, o.NumInputs())}
	var truth float64
	for round := 0; round < rounds; round++ {
		res := sampling.PatternSampling(o, out, nil, sampling.Config{R: cfg.R, Ratios: cfg.Ratios}, rng)
		for i, d := range res.D {
			if d > 0 {
				info.D[i] += d
			}
		}
		truth += res.TruthRatio
	}
	info.TruthRatio = truth / float64(rounds)
	for i, d := range info.D {
		if d > 0 {
			info.Support = append(info.Support, i)
		}
	}
	sort.Ints(info.Support)
	return info
}

// Witness searches for a concrete assignment pair proving that output out
// depends on input in (Proposition 1's \hat{alpha}_i), trying tries random
// base assignments over the bias pool. It returns the base assignment with
// the input set to 0 and ok=true on success. This is the exact-certificate
// counterpart to the statistical Identify and is used by tests and
// diagnostics.
func Witness(o oracle.Oracle, out, in, tries int, rng *rand.Rand) ([]bool, bool) {
	const chunk = 32 // 2 patterns per try = exactly one lane word
	ratios := sampling.DefaultRatios
	n := o.NumInputs()
	for k := 0; k < tries; k += chunk {
		cnt := min(tries-k, chunk)
		// Random draws stay in the per-try reference order; only the
		// queries are blocked (base/toggled pair per try, pairs packed
		// into adjacent lanes).
		bases := make([][]bool, cnt)
		w := oracle.Words(2 * cnt)
		lanes := make([]bitvec.Word, n*w)
		for t := 0; t < cnt; t++ {
			a := sampling.RandomAssignment(rng, n, ratios[(k+t)%len(ratios)], nil)
			a[in] = false
			bases[t] = a
			for j := 0; j < n; j++ {
				bit := uint(2 * t % 64)
				if a[j] || j == in {
					var pair bitvec.Word
					if a[j] {
						pair = 0b11
					}
					if j == in {
						pair |= 0b10 // toggled copy has the input set
					}
					lanes[j*w+2*t/64] |= pair << bit
				}
			}
		}
		res := o.EvalBatch(lanes, 2*cnt)
		for t := 0; t < cnt; t++ {
			word := res[out*w+2*t/64] >> uint(2*t%64)
			if word&1 != word>>1&1 {
				return bases[t], true
			}
		}
	}
	return nil, false
}
