package template

import (
	"math/rand"

	"logicregression/internal/bitvec"
	"logicregression/internal/circuit"
	"logicregression/internal/names"
	"logicregression/internal/oracle"
	"logicregression/internal/sampling"
)

// HiddenMatch records a comparator subcircuit that is not a primary output
// itself but whose value was made observable at output Out under a special
// context assignment of the remaining inputs (Sec. IV-B1, Example 2).
type HiddenMatch struct {
	CompMatch
	// Context is the propagating assignment: with the non-vector inputs
	// fixed to it, output Out equals the (possibly negated) predicate.
	Context []bool
}

// DetectHidden searches for a hidden comparator over the vector pair
// (v1,v2) observable at any output. It tries `tries` random context
// assignments on the inputs outside the two vectors; under each context it
// samples random operand values and screens all predicates and polarities,
// then verifies survivors with further targeted probes.
func DetectHidden(o oracle.Oracle, v1, v2 names.Vector, tries int, cfg Config, rng *rand.Rand) (HiddenMatch, bool) {
	cfg = cfg.withDefaults()
	n := o.NumInputs()
	inVec := make([]bool, n)
	for _, p := range v1.Ports {
		inVec[p] = true
	}
	for _, p := range v2.Ports {
		inVec[p] = true
	}

	for t := 0; t < tries; t++ {
		ctx := sampling.RandomAssignment(rng, n, cfg.Ratios[t%len(cfg.Ratios)], nil)
		// Collect screening samples under this context.
		type obs struct {
			x1, x2 uint64
			out    []bool
		}
		samples := make([]obs, 0, cfg.Samples)
		for s := 0; s < cfg.Samples; s++ {
			a := append([]bool(nil), ctx...)
			x1 := rng.Uint64() & widthMask(v1.Width())
			x2 := rng.Uint64() & widthMask(v2.Width())
			v1.Encode(x1, a)
			v2.Encode(x2, a)
			samples = append(samples, obs{x1: x1, x2: x2, out: oracle.Eval(o, a)})
		}
		for po := 0; po < o.NumOutputs(); po++ {
			for op := EQ; op < numPredicates; op++ {
				posOK, negOK := true, true
				varied := false
				first := op.Eval(samples[0].x1, samples[0].x2)
				for _, s := range samples {
					p := op.Eval(s.x1, s.x2)
					if p != first {
						varied = true
					}
					if s.out[po] != p {
						posOK = false
					}
					if s.out[po] == p {
						negOK = false
					}
					if !posOK && !negOK {
						break
					}
				}
				if !varied {
					continue // cannot distinguish the predicate from a constant
				}
				for _, neg := range []bool{false, true} {
					if neg && !negOK || !neg && !posOK {
						continue
					}
					hm := HiddenMatch{
						CompMatch: CompMatch{Out: po, Op: op, V1: v1, V2: &v2, Negated: neg},
						Context:   ctx,
					}
					if verifyHidden(o, hm, cfg, rng) {
						return hm, true
					}
				}
			}
		}
	}
	return HiddenMatch{}, false
}

// verifyHidden re-probes the match under its context with operand pairs
// driven to both predicate values.
func verifyHidden(o oracle.Oracle, hm HiddenMatch, cfg Config, rng *rand.Rand) bool {
	for k := 0; k < cfg.Verify; k++ {
		want := k%2 == 0
		x1, x2, ok := makePair(hm.Op, want, hm.V1.Width(), hm.V2.Width(), rng)
		if !ok {
			return false
		}
		a := append([]bool(nil), hm.Context...)
		hm.V1.Encode(x1, a)
		hm.V2.Encode(x2, a)
		if oracle.Eval(o, a)[hm.Out] != (want != hm.Negated) {
			return false
		}
	}
	return true
}

// Compressed is the input-compressed oracle of Example 2: the comparator
// output O_s becomes a new (last) primary input, the vector ports are
// discarded, and queries realize the delegate value through representative
// operand pairs. The compression is exact when O_s dominates all paths from
// the discarded inputs to the outputs (the paper's assumption); otherwise
// the downstream accuracy check exposes the mismatch.
type Compressed struct {
	inner   oracle.Oracle
	cm      CompMatch // the delegate subfunction (vector-vector form)
	keep    []int     // old input index per new input (delegate excluded)
	inNames []string
	repT    [2]uint64 // operand pair with predicate true
	repF    [2]uint64 // operand pair with predicate false
}

// NewCompressed builds the compressed view of o induced by the match. ok is
// false when no representative operand pairs exist for the predicate.
func NewCompressed(o oracle.Oracle, cm CompMatch, rng *rand.Rand) (*Compressed, bool) {
	if cm.V2 == nil {
		panic("template: compression requires a vector-vector match")
	}
	t1, t2, okT := makePair(cm.Op, true, cm.V1.Width(), cm.V2.Width(), rng)
	f1, f2, okF := makePair(cm.Op, false, cm.V1.Width(), cm.V2.Width(), rng)
	if !okT || !okF {
		return nil, false
	}
	drop := make(map[int]bool)
	for _, p := range cm.V1.Ports {
		drop[p] = true
	}
	for _, p := range cm.V2.Ports {
		drop[p] = true
	}
	co := &Compressed{inner: o, cm: cm, repT: [2]uint64{t1, t2}, repF: [2]uint64{f1, f2}}
	orig := o.InputNames()
	for i := 0; i < o.NumInputs(); i++ {
		if !drop[i] {
			co.keep = append(co.keep, i)
			co.inNames = append(co.inNames, orig[i])
		}
	}
	co.inNames = append(co.inNames, "__delegate_"+cm.V1.Stem+cm.Op.String()+cm.V2.Stem)
	return co, true
}

// Delegate returns the index of the delegate input in the compressed view.
func (co *Compressed) Delegate() int { return len(co.keep) }

// KeptInput returns the original input index of compressed input i
// (i < Delegate()).
func (co *Compressed) KeptInput(i int) int { return co.keep[i] }

func (co *Compressed) NumInputs() int        { return len(co.keep) + 1 }
func (co *Compressed) NumOutputs() int       { return co.inner.NumOutputs() }
func (co *Compressed) InputNames() []string  { return append([]string(nil), co.inNames...) }
func (co *Compressed) OutputNames() []string { return co.inner.OutputNames() }

// EvalBatch translates the compressed lanes into one inner batch of the same
// n patterns: kept inputs copy their lanes, and every vector port takes the
// bit of representative pair repT where the delegate lane is 1 and of repF
// where it is 0.
func (co *Compressed) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	w := oracle.Words(n)
	lane := func(ls []bitvec.Word, i int) []bitvec.Word { return ls[i*w : (i+1)*w] }
	old := make([]bitvec.Word, co.inner.NumInputs()*w)
	for i, oldIdx := range co.keep {
		copy(lane(old, oldIdx), lane(patterns, i))
	}
	del := lane(patterns, len(co.keep))
	encode := func(v names.Vector, tVal, fVal uint64) {
		for b, port := range v.Ports {
			if b >= 64 {
				break
			}
			tBit := -(bitvec.Word(tVal>>uint(b)) & 1)
			fBit := -(bitvec.Word(fVal>>uint(b)) & 1)
			dst := lane(old, port)
			for k, d := range del {
				dst[k] = d&tBit | ^d&fBit
			}
		}
	}
	encode(co.cm.V1, co.repT[0], co.repF[0])
	encode(*co.cm.V2, co.repT[1], co.repF[1])
	return co.inner.EvalBatch(old, n)
}

// VarSignal maps a compressed-input index to a signal in a circuit being
// built over the ORIGINAL inputs: kept inputs map to their PI signals and
// the delegate maps to the synthesized comparator subcircuit (built on first
// use by the caller and passed in as delegateSig).
func (co *Compressed) VarSignal(v int, piSigs []circuit.Signal, delegateSig circuit.Signal) circuit.Signal {
	if v == co.Delegate() {
		return delegateSig
	}
	return piSigs[co.keep[v]]
}
