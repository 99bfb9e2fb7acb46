package template

import (
	"math/rand"

	"logicregression/internal/names"
	"logicregression/internal/oracle"
	"logicregression/internal/sampling"
)

// detectLinear probes each output vector for a relation
// N_z = sum a_i N_vi + b (mod 2^w) over the input vectors (Sec. IV-B2).
//
// Following the paper, b is read off with all inputs at 0 and each a_i with
// N_vi = 1 and the rest at 0; random verification probes (with the
// non-vector inputs randomized, to confirm independence) must then agree.
func detectLinear(o oracle.Oracle, inVecs []names.Vector, outVecs []names.Vector, cfg Config, rng *rand.Rand) []LinMatch {
	if len(outVecs) == 0 {
		return nil
	}
	n := o.NumInputs()
	zeroIn := make([]bool, n)
	base := oracle.Eval(o, zeroIn)

	var matches []LinMatch
	for _, z := range outVecs {
		if z.Width() > 64 {
			continue
		}
		w := z.Width()
		mask := widthMask(w)
		b := z.Decode(base) & mask

		lm := LinMatch{OutVec: z, B: b, Width: w}
		for _, v := range inVecs {
			a := make([]bool, n)
			v.Encode(1, a)
			got := z.Decode(oracle.Eval(o, a)) & mask
			coeff := (got - b) & mask
			if coeff != 0 {
				lm.Terms = append(lm.Terms, LinTerm{Vec: v, A: coeff})
			}
		}
		if verifyLinear(o, lm, cfg.withDefaults(), rng) {
			matches = append(matches, lm)
		}
	}
	return matches
}

// Predict evaluates the matched relation on an input assignment.
func (lm LinMatch) Predict(assignment []bool) uint64 {
	mask := widthMask(lm.Width)
	acc := lm.B
	for _, t := range lm.Terms {
		acc += t.A * (t.Vec.Decode(assignment) & mask)
	}
	return acc & mask
}

func verifyLinear(o oracle.Oracle, lm LinMatch, cfg Config, rng *rand.Rand) bool {
	n := o.NumInputs()
	mask := widthMask(lm.Width)
	for k := 0; k < cfg.Verify; k++ {
		a := sampling.RandomAssignment(rng, n, sampling.DefaultRatios[k%len(sampling.DefaultRatios)], nil)
		want := lm.Predict(a)
		got := lm.OutVec.Decode(oracle.Eval(o, a)) & mask
		if got != want {
			return false
		}
	}
	return true
}
