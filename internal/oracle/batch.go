package oracle

// The lane layout of Oracle.EvalBatch: every stage of the learning pipeline
// (pattern sampling, support identification, FBDT node splitting, accuracy
// evaluation, refinement sweeps) issues its black-box queries in blocks.
//
// A batch of n patterns is bit-packed into lanes: with W = Words(n) words per
// lane, input lane i occupies patterns[i*W : (i+1)*W], and bit k of a lane
// (word k/64, bit position k%64) holds the value of that input in pattern k.
// Results use the same layout per output. Tail bits (pattern indices >= n in
// the last word) are don't-cares on both sides: implementations may evaluate
// or ignore them, and callers must mask result tails before counting.
//
// One query per pattern is the reference semantics: for any oracle o and any
// batch, EvalBatch must be bitwise identical to asking each pattern alone
// (Eval, ScalarOnly) — the parity tests in batch_test.go enforce this across
// all 20 benchmark cases.

import (
	"fmt"

	"logicregression/internal/bitvec"
)

// Words returns the number of 64-bit lane words needed to hold n patterns.
//
//logicreg:hotpath
func Words(n int) int { return (n + 63) / 64 }

// Forker is implemented by oracles that can hand out a handle usable from
// another goroutine concurrently with the receiver and all other forks.
// Stateless oracles (pure simulators, replay tables) return themselves;
// stateful oracles that cannot fork simply do not implement the interface
// and get externally serialized (see ioserve.Server).
type Forker interface {
	Oracle
	Fork() Oracle
}

// evalPerPattern is the reference batch implementation: f answers each of
// the n patterns alone. The result has one lane per output f returns, so an
// f that disagrees with its declared arity shows in the lane count.
func evalPerPattern(nIn int, patterns []bitvec.Word, n int, f func([]bool) []bool) []bitvec.Word {
	w := Words(n)
	checkBatch(len(patterns), nIn, n)
	var out []bitvec.Word
	assign := make([]bool, nIn)
	for k := 0; k < n; k++ {
		patternBools(patterns, w, nIn, k, assign)
		v := f(assign)
		if out == nil {
			out = make([]bitvec.Word, len(v)*w)
		}
		scatterBools(out, w, k, v)
	}
	return out
}

// checkBatch panics when the lane buffer does not match the declared batch
// geometry; a mismatch is always a programming error.
func checkBatch(got, nIn, n int) {
	if n <= 0 {
		panic(fmt.Sprintf("oracle: EvalBatch of %d patterns", n))
	}
	if want := nIn * Words(n); got != want {
		panic(fmt.Sprintf("oracle: EvalBatch got %d lane words, want %d (%d inputs x %d words)",
			got, want, nIn, Words(n)))
	}
}

// ScalarOnly hides any batching o does: every pattern of a batch becomes
// its own one-pattern query. It is the reference wrapper for the
// equivalence guarantee: for any oracle, learning against ScalarOnly(o) and
// against o itself must produce byte-identical results at a fixed seed.
func ScalarOnly(o Oracle) Oracle { return &scalarOnly{o} }

type scalarOnly struct {
	Oracle
}

func (s *scalarOnly) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	return evalPerPattern(s.NumInputs(), patterns, n, func(a []bool) []bool { return Eval(s.Oracle, a) })
}

// laneBit returns the value of input/output lane i in pattern k.
//
//logicreg:hotpath
func laneBit(lanes []bitvec.Word, w, i, k int) bool {
	return lanes[i*w+k>>6]>>(uint(k)&63)&1 == 1
}

// setLaneBit sets pattern k of lane i to 1 (lanes start all-zero).
//
//logicreg:hotpath
func setLaneBit(lanes []bitvec.Word, w, i, k int) {
	lanes[i*w+k>>6] |= 1 << (uint(k) & 63)
}

// patternBools extracts pattern k of a lane-packed batch into dst (one entry
// per lane).
//
//logicreg:hotpath
func patternBools(lanes []bitvec.Word, w, nLanes, k int, dst []bool) {
	for i := 0; i < nLanes; i++ {
		dst[i] = laneBit(lanes, w, i, k)
	}
}

// packPatterns packs per-pattern bool assignments into lane layout.
func packPatterns(assigns [][]bool, nLanes int) []bitvec.Word {
	w := Words(len(assigns))
	lanes := make([]bitvec.Word, nLanes*w)
	for k, a := range assigns {
		for i, bit := range a {
			if bit {
				setLaneBit(lanes, w, i, k)
			}
		}
	}
	return lanes
}
