// Package sampling implements the PatternSampling procedure of the paper
// (Algorithm 1) and the random assignment generators behind it.
//
// PatternSampling probes a black-box output with r random assignments per
// candidate input, toggling that input to measure the dependency count D_i
// (how often the output flips), and accumulates the TruthRatio (fraction of
// 1s among sampled output values). Assignments can be constrained by a cube,
// which is how the decision tree samples within a node (Sec. IV-D).
//
// Following the paper's observation that some outputs only reveal
// sensitivities under assignments with an uneven ratio of 0s and 1s, the
// generator draws each 64-pattern word from a pool of one-bias ratios
// (Config.Ratios); the default pool mixes the even ratio with several uneven
// ones.
package sampling

import (
	"math/bits"
	"math/rand"

	"logicregression/internal/oracle"
	"logicregression/internal/sop"
)

// DefaultRatios is the combined even/uneven sampling pool of Sec. IV-C.
var DefaultRatios = []float64{0.5, 0.25, 0.75, 0.1, 0.9}

// Config controls PatternSampling.
type Config struct {
	// R is the number of sampled assignments per candidate input.
	// The paper uses 7200 for support identification and 60 inside the
	// decision tree.
	R int
	// Ratios is the pool of P(bit=1) biases; each 64-pattern word is drawn
	// with one ratio from the pool, cycling. Empty means DefaultRatios.
	Ratios []float64
	// Candidates, when non-nil, restricts the probed inputs to this set
	// (cube-bound members are still skipped). The decision tree uses it to
	// probe only the inputs in the identified support S'.
	Candidates []int
}

func (c Config) ratios() []float64 {
	if len(c.Ratios) == 0 {
		return DefaultRatios
	}
	return c.Ratios
}

// Result is the output of PatternSampling.
type Result struct {
	// D maps each input index to its dependency count; constrained inputs
	// (bound by the cube) hold -1.
	D []int
	// Free lists the unconstrained input indices, ascending.
	Free []int
	// TruthRatio is the fraction of 1s among all sampled output values.
	TruthRatio float64
	// Samples is the number of output values observed (2*r*|Free|).
	Samples int
}

// MostSignificant returns the free input with the highest dependency count
// (the paper's \hat{i}) and that count. ok is false when every free input has
// zero dependency count, i.e. the output looks constant under this cube.
func (r Result) MostSignificant() (input, count int, ok bool) {
	best, bestD := -1, 0
	for _, i := range r.Free {
		if r.D[i] > bestD {
			best, bestD = i, r.D[i]
		}
	}
	if best < 0 {
		return -1, 0, false
	}
	return best, bestD, true
}

// Support returns the free inputs with nonzero dependency count, the paper's
// underapproximated support S'.
func (r Result) Support() []int {
	var s []int
	for _, i := range r.Free {
		if r.D[i] > 0 {
			s = append(s, i)
		}
	}
	return s
}

// PatternSampling implements Algorithm 1 for a single output of the oracle.
// out selects the output index; cube constrains every sampled assignment.
func PatternSampling(o oracle.Oracle, out int, cube sop.Cube, cfg Config, rng *rand.Rand) Result {
	n := o.NumInputs()
	res := Result{D: make([]int, n)}
	constrained := make([]bool, n)
	for _, l := range cube {
		constrained[l.Var] = true
		res.D[l.Var] = -1
	}
	if cfg.Candidates != nil {
		inCand := make([]bool, n)
		for _, i := range cfg.Candidates {
			inCand[i] = true
		}
		for i := 0; i < n; i++ {
			if !constrained[i] && inCand[i] {
				res.Free = append(res.Free, i)
			}
		}
	} else {
		for i := 0; i < n; i++ {
			if !constrained[i] {
				res.Free = append(res.Free, i)
			}
		}
	}
	if cfg.R <= 0 || len(res.Free) == 0 {
		return res
	}

	// Draw each free input's R patterns exactly as the per-input loop of
	// Algorithm 1 does (block-major, all inputs within a block, one bias
	// ratio per block, tail bits drawn and dropped), and pack the whole
	// sweep densely into one batch: segment 2*idx holds alpha_i (input
	// i = Free[idx] forced to 1), segment 2*idx+1 holds alpha_not_i (forced
	// to 0), R patterns each. One EvalBatch answers the sweep and charges
	// the same 2*R*|Free| queries as two batches per input would.
	r := cfg.R
	ratios := cfg.ratios()
	words := (r + 63) / 64
	tail := maskLow(r - 64*(words-1))
	total := 2 * r * len(res.Free)
	lw := oracle.Words(total)
	lanes := make([]uint64, n*lw)
	draw := make([]uint64, n*words)
	forced := make([]uint64, words) // R ones: the probed input in alpha_i
	for w := range forced {
		forced[w] = ^uint64(0)
	}
	forced[words-1] = tail
	ratioIdx := 0
	for idx, i := range res.Free {
		for w := 0; w < words; w++ {
			p := ratios[ratioIdx%len(ratios)]
			ratioIdx++
			for j := 0; j < n; j++ {
				draw[j*words+w] = BiasedWord(rng, p)
			}
			for _, l := range cube {
				if l.Neg {
					draw[l.Var*words+w] = 0
				} else {
					draw[l.Var*words+w] = ^uint64(0)
				}
			}
		}
		at1, at0 := 2*idx*r, (2*idx+1)*r
		for j := 0; j < n; j++ {
			lane := lanes[j*lw : (j+1)*lw]
			if j == i {
				orBits(lane, at1, forced) // alpha_not_i keeps its zeros
				continue
			}
			src := draw[j*words : (j+1)*words]
			src[words-1] &= tail
			orBits(lane, at1, src)
			orBits(lane, at0, src)
		}
	}

	got := o.EvalBatch(lanes, total)[out*lw : (out+1)*lw]
	ones := 0
	for idx, i := range res.Free {
		at1, at0 := 2*idx*r, (2*idx+1)*r
		for k := 0; k < r; k += 64 {
			cnt := min(r-k, 64)
			out1, out0 := readBits(got, at1+k, cnt), readBits(got, at0+k, cnt)
			res.D[i] += popcount(out1 ^ out0)
			ones += popcount(out1) + popcount(out0)
		}
	}
	res.Samples = total
	res.TruthRatio = float64(ones) / float64(total)
	return res
}

// orBits ORs the bits of src into dst from bit offset at on. Every set bit
// of src must land inside dst.
func orBits(dst []uint64, at int, src []uint64) {
	base, sh := at>>6, uint(at&63)
	for k, s := range src {
		dst[base+k] |= s << sh
		if sh != 0 && base+k+1 < len(dst) {
			dst[base+k+1] |= s >> (64 - sh)
		}
	}
}

// readBits returns the cnt <= 64 bits of src from bit offset at on.
func readBits(src []uint64, at, cnt int) uint64 {
	base, sh := at>>6, uint(at&63)
	v := src[base] >> sh
	if sh != 0 && base+1 < len(src) {
		v |= src[base+1] << (64 - sh)
	}
	return v & maskLow(cnt)
}

func maskLow(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

func popcount(x uint64) int { return bits.OnesCount64(x) }

// fillRandomWords fills one 64-pattern word per input, each bit Bernoulli(p).
func fillRandomWords(rng *rand.Rand, words []uint64, p float64) {
	for i := range words {
		words[i] = BiasedWord(rng, p)
	}
}

// applyCubeWords forces the cube literals across all 64 patterns.
func applyCubeWords(cube sop.Cube, words []uint64) {
	for _, l := range cube {
		if l.Neg {
			words[l.Var] = 0
		} else {
			words[l.Var] = ^uint64(0)
		}
	}
}

// BiasedWord returns a 64-bit word whose bits are independently 1 with
// probability p (quantized to 16 binary digits). The construction processes
// the binary expansion of p from the least significant digit: OR with a fresh
// random word realizes p -> (1+p)/2 and AND realizes p -> p/2.
func BiasedWord(rng *rand.Rand, p float64) uint64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return ^uint64(0)
	case p == 0.5:
		return rng.Uint64()
	}
	q := uint32(p * 65536)
	if q == 0 {
		return 0
	}
	var w uint64
	started := false
	for bit := 0; bit < 16; bit++ {
		d := q >> uint(bit) & 1
		if !started {
			if d == 1 {
				w = rng.Uint64()
				started = true
			}
			continue
		}
		if d == 1 {
			w |= rng.Uint64()
		} else {
			w &= rng.Uint64()
		}
	}
	return w
}

// RandomAssignment returns an n-bit assignment with each bit 1 with
// probability p, optionally constrained by cube.
func RandomAssignment(rng *rand.Rand, n int, p float64, cube sop.Cube) []bool {
	a := make([]bool, n)
	for i := range a {
		a[i] = rng.Float64() < p
	}
	cube.Apply(a)
	return a
}

// RandomWords returns one 64-pattern word per input with bias p, constrained
// by cube.
func RandomWords(rng *rand.Rand, n int, p float64, cube sop.Cube) []uint64 {
	words := make([]uint64, n)
	fillRandomWords(rng, words, p)
	applyCubeWords(cube, words)
	return words
}
