package template

import (
	"math/rand"

	"logicregression/internal/names"
	"logicregression/internal/oracle"
	"logicregression/internal/sampling"
)

// Config controls template detection.
type Config struct {
	// Samples is the number of shared random probe assignments used for
	// hypothesis screening.
	Samples int
	// Verify is the number of targeted probes a hypothesis must survive.
	Verify int
	// MaxPairs caps the number of input-vector pairs screened.
	MaxPairs int
	// Ratios is the bias pool for the shared probes.
	Ratios []float64
	// ExtendedTemplates additionally screens the bitwise lane-operator
	// family (an extension beyond the paper's two families; see
	// bitwise.go). Off by default to keep the paper-faithful pipeline.
	ExtendedTemplates bool
}

func (c Config) withDefaults() Config {
	if c.Samples <= 0 {
		// Five 64-pattern words: one per member of the default bias pool,
		// so rare-event relations (equality against a constant) get probed
		// under the skewed ratios too.
		c.Samples = 320
	}
	if c.Verify <= 0 {
		c.Verify = 48
	}
	if c.MaxPairs <= 0 {
		c.MaxPairs = 256
	}
	if len(c.Ratios) == 0 {
		c.Ratios = sampling.DefaultRatios
	}
	return c
}

// CompMatch records a matched comparator template: output Out equals
// (possibly negated) pred(N_V1, N_V2) or pred(N_V1, Const).
type CompMatch struct {
	Out     int // PO index
	Op      Predicate
	V1      names.Vector
	V2      *names.Vector // nil for the constant form
	Const   uint64        // right operand when V2 is nil
	Negated bool
}

// LinTerm is one coefficient of a linear-arithmetic match.
type LinTerm struct {
	Vec names.Vector // input vector
	A   uint64       // coefficient, modulo 2^Width
}

// LinMatch records a matched linear-arithmetic template:
// N_OutVec = sum A_i * N_Vec_i + B (mod 2^Width).
type LinMatch struct {
	OutVec names.Vector // over PO positions
	B      uint64
	Terms  []LinTerm
	Width  int // arithmetic width (min(|OutVec|, 64))
}

// Matches is the result of template detection.
type Matches struct {
	Comparators []CompMatch
	Linear      []LinMatch
	// Bitwise holds lane-operator matches (extended family only).
	Bitwise []BitwiseMatch
	// Affine holds GF(2)-parity matches (extended family only).
	Affine []AffineMatch
}

// MatchedOutputs returns the set of PO indices fully explained by templates.
func (m Matches) MatchedOutputs() map[int]bool {
	covered := make(map[int]bool)
	for _, cm := range m.Comparators {
		covered[cm.Out] = true
	}
	for _, lm := range m.Linear {
		for i, pos := range lm.OutVec.Ports {
			if i < lm.Width {
				covered[pos] = true
			}
		}
	}
	for _, bm := range m.Bitwise {
		for i, pos := range bm.OutVec.Ports {
			if i < bm.Width {
				covered[pos] = true
			}
		}
	}
	for _, am := range m.Affine {
		covered[am.Out] = true
	}
	return covered
}

// sampleSet is a shared matrix of random probes.
type sampleSet struct {
	n   int
	vec [][]uint64 // vec[vi][s]: decoded value of input vector vi at sample s
	out [][]bool   // out[po][s]
}

func collectSamples(o oracle.Oracle, vecs []names.Vector, cfg Config, rng *rand.Rand) *sampleSet {
	ss := &sampleSet{n: cfg.Samples}
	ss.vec = make([][]uint64, len(vecs))
	for i := range ss.vec {
		ss.vec[i] = make([]uint64, ss.n)
	}
	ss.out = make([][]bool, o.NumOutputs())
	for i := range ss.out {
		ss.out[i] = make([]bool, ss.n)
	}
	nIn := o.NumInputs()
	for base := 0; base < ss.n; base += 64 {
		batch := min(ss.n-base, 64)
		words := sampling.RandomWords(rng, nIn, cfg.Ratios[(base/64)%len(cfg.Ratios)], nil)
		outs := o.EvalBatch(words, 64)
		for s := 0; s < batch; s++ {
			for vi, v := range vecs {
				var x uint64
				for b, port := range v.Ports {
					if b >= 64 {
						break
					}
					x |= (words[port] >> uint(s) & 1) << uint(b)
				}
				ss.vec[vi][base+s] = x
			}
			for po := range ss.out {
				ss.out[po][base+s] = outs[po]>>uint(s)&1 == 1
			}
		}
	}
	return ss
}

// Detect screens all six predicates over input-vector pairs and constant
// forms against every output, and linear-arithmetic relations against every
// output vector, verifying each surviving hypothesis with targeted probes.
func Detect(o oracle.Oracle, cfg Config, rng *rand.Rand) Matches {
	cfg = cfg.withDefaults()
	inG := names.Group(o.InputNames())
	outG := names.Group(o.OutputNames())

	var m Matches
	vecs := usableVectors(inG.Vectors)
	if len(vecs) > 0 {
		ss := collectSamples(o, vecs, cfg, rng)
		m.Comparators = detectComparators(o, vecs, ss, cfg, rng)
	}
	m.Linear = detectLinear(o, vecs, outG.Vectors, cfg, rng)
	if cfg.ExtendedTemplates {
		// Screen the extended lane-operator family on output vectors the
		// paper families did not settle.
		covered := m.MatchedOutputs()
		var remaining []names.Vector
		for _, z := range outG.Vectors {
			taken := false
			for _, pos := range z.Ports {
				if covered[pos] {
					taken = true
					break
				}
			}
			if !taken {
				remaining = append(remaining, z)
			}
		}
		m.Bitwise = detectBitwise(o, vecs, remaining, cfg, rng)
		// Affine (parity) screening for outputs nothing else settled.
		m.Affine = detectAffine(o, m.MatchedOutputs(), cfg, rng)
	}
	return m
}

// usableVectors filters out vectors too wide to decode as uint64.
func usableVectors(vs []names.Vector) []names.Vector {
	var out []names.Vector
	for _, v := range vs {
		if v.Width() <= 64 {
			out = append(out, v)
		}
	}
	return out
}

func detectComparators(o oracle.Oracle, vecs []names.Vector, ss *sampleSet, cfg Config, rng *rand.Rand) []CompMatch {
	var matches []CompMatch
	matched := make(map[int]bool)
	// Vector-vector forms.
	pairs := 0
pairLoop:
	for i := 0; i < len(vecs) && pairs < cfg.MaxPairs; i++ {
		for j := i + 1; j < len(vecs) && pairs < cfg.MaxPairs; j++ {
			pairs++
			for po := 0; po < o.NumOutputs(); po++ {
				if matched[po] {
					continue
				}
				if cm, ok := screenPair(o, vecs, i, j, po, ss, cfg, rng); ok {
					matches = append(matches, cm)
					matched[po] = true
					if len(matched) == o.NumOutputs() {
						break pairLoop
					}
				}
			}
		}
	}
	// Vector-constant forms.
	for vi := range vecs {
		for po := 0; po < o.NumOutputs(); po++ {
			if matched[po] {
				continue
			}
			if cm, ok := screenConst(o, vecs, vi, po, ss, cfg, rng); ok {
				matches = append(matches, cm)
				matched[po] = true
			}
		}
	}
	return matches
}

// screenPair tests all predicates (both polarities) of pair (i,j) against
// output po using the shared samples, then verifies with targeted probes.
func screenPair(o oracle.Oracle, vecs []names.Vector, i, j, po int, ss *sampleSet, cfg Config, rng *rand.Rand) (CompMatch, bool) {
	outs := ss.out[po]
	for op := EQ; op < numPredicates; op++ {
		consistentPos, consistentNeg := true, true
		for s := 0; s < ss.n && (consistentPos || consistentNeg); s++ {
			p := op.Eval(ss.vec[i][s], ss.vec[j][s])
			if outs[s] != p {
				consistentPos = false
			}
			if outs[s] == p {
				consistentNeg = false
			}
		}
		for _, neg := range []bool{false, true} {
			if neg && !consistentNeg || !neg && !consistentPos {
				continue
			}
			cm := CompMatch{Out: po, Op: op, V1: vecs[i], V2: &vecs[j], Negated: neg}
			if verifyPair(o, cm, cfg, rng) {
				return cm, true
			}
		}
	}
	return CompMatch{}, false
}

// verifyPair issues targeted probes driving the predicate to both values.
func verifyPair(o oracle.Oracle, cm CompMatch, cfg Config, rng *rand.Rand) bool {
	n := o.NumInputs()
	for k := 0; k < cfg.Verify; k++ {
		want := k%2 == 0
		x1, x2, ok := makePair(cm.Op, want, cm.V1.Width(), cm.V2.Width(), rng)
		if !ok {
			return false
		}
		a := sampling.RandomAssignment(rng, n, sampling.DefaultRatios[k%len(sampling.DefaultRatios)], nil)
		cm.V1.Encode(x1, a)
		cm.V2.Encode(x2, a)
		got := oracle.Eval(o, a)[cm.Out]
		if got != (want != cm.Negated) {
			return false
		}
	}
	return true
}

// makePair constructs operand values with op(x1,x2) == want, honoring the
// vector widths. ok is false when no such pair exists (e.g. LT with an
// empty right range) or none was found.
func makePair(op Predicate, want bool, w1, w2 int, rng *rand.Rand) (x1, x2 uint64, ok bool) {
	m1 := widthMask(w1)
	m2 := widthMask(w2)
	// Constructive cases first: equality across different widths needs
	// values representable in both.
	mBoth := m1 & m2
	switch {
	case op == EQ && want, op == NE && !want:
		r := rng.Uint64() & mBoth
		return r, r, true
	case op == EQ && !want, op == NE && want:
		if m1 == 0 && m2 == 0 {
			return 0, 0, false // both vectors empty: always equal
		}
	}
	for try := 0; try < 200; try++ {
		a := rng.Uint64() & m1
		b := rng.Uint64() & m2
		if op.Eval(a, b) == want {
			return a, b, true
		}
	}
	return 0, 0, false
}

func widthMask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(w) - 1
}

// screenConst looks for threshold and equality relations against a constant.
func screenConst(o oracle.Oracle, vecs []names.Vector, vi, po int, ss *sampleSet, cfg Config, rng *rand.Rand) (CompMatch, bool) {
	outs := ss.out[po]
	xs := ss.vec[vi]
	v := vecs[vi]

	// Partition sample values by output.
	var onesMin, zerosMin uint64 = ^uint64(0), ^uint64(0)
	var onesMax, zerosMax uint64
	nOnes, nZeros := 0, 0
	onesSame, zerosSame := true, true
	var onesVal, zerosVal uint64
	for s := 0; s < ss.n; s++ {
		x := xs[s]
		if outs[s] {
			if nOnes == 0 {
				onesVal = x
			} else if x != onesVal {
				onesSame = false
			}
			nOnes++
			onesMin = min(onesMin, x)
			onesMax = max(onesMax, x)
		} else {
			if nZeros == 0 {
				zerosVal = x
			} else if x != zerosVal {
				zerosSame = false
			}
			nZeros++
			zerosMin = min(zerosMin, x)
			zerosMax = max(zerosMax, x)
		}
	}
	if nOnes == 0 || nZeros == 0 {
		// The output never varied in the screen; equality against an
		// unobserved constant cannot be recovered from these samples.
		return CompMatch{}, false
	}

	// Threshold, decreasing: z = (x < b) with b in (onesMax, zerosMin].
	if onesMax < zerosMin {
		if b, ok := searchThreshold(o, v, po, onesMax, zerosMin, false, cfg, rng); ok {
			cm := CompMatch{Out: po, Op: LT, V1: v, Const: b}
			if verifyConst(o, cm, cfg, rng) {
				return cm, true
			}
		}
	}
	// Threshold, increasing: z = (x >= b) with b in (zerosMax, onesMin].
	if zerosMax < onesMin {
		if b, ok := searchThreshold(o, v, po, zerosMax, onesMin, true, cfg, rng); ok {
			cm := CompMatch{Out: po, Op: GE, V1: v, Const: b}
			if verifyConst(o, cm, cfg, rng) {
				return cm, true
			}
		}
	}
	// Equality: all 1-samples share one value, all 0-samples differ from it.
	if onesSame && (!zerosSame || zerosVal != onesVal) {
		cm := CompMatch{Out: po, Op: EQ, V1: v, Const: onesVal}
		if verifyConst(o, cm, cfg, rng) {
			return cm, true
		}
	}
	// Disequality: all 0-samples share one value.
	if zerosSame && (!onesSame || onesVal != zerosVal) {
		cm := CompMatch{Out: po, Op: NE, V1: v, Const: zerosVal}
		if verifyConst(o, cm, cfg, rng) {
			return cm, true
		}
	}
	return CompMatch{}, false
}

// searchThreshold binary-searches the constant b of a threshold relation.
// For increasing=false, z is 1 below the threshold: invariant z(lo)=1,
// z(hi)=0 and the result is the smallest x with z(x)=0. For increasing=true
// the roles are flipped. Each probe fixes the vector value and randomizes
// the remaining inputs. This is the paper's "binary search strategy" for
// constant identification.
func searchThreshold(o oracle.Oracle, v names.Vector, po int, lo, hi uint64, increasing bool, cfg Config, rng *rand.Rand) (uint64, bool) {
	n := o.NumInputs()
	probe := func(x uint64) bool {
		a := sampling.RandomAssignment(rng, n, 0.5, nil)
		v.Encode(x, a)
		return oracle.Eval(o, a)[po]
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		z := probe(mid)
		high := z == increasing // value belongs to the upper side
		if high {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// verifyConst issues targeted probes at and around the constant.
func verifyConst(o oracle.Oracle, cm CompMatch, cfg Config, rng *rand.Rand) bool {
	n := o.NumInputs()
	mask := widthMask(cm.V1.Width())
	probes := []uint64{cm.Const & mask}
	if cm.Const > 0 {
		probes = append(probes, (cm.Const-1)&mask)
	}
	probes = append(probes, (cm.Const+1)&mask)
	for k := 0; k < cfg.Verify; k++ {
		var x uint64
		if k < len(probes) {
			x = probes[k]
		} else {
			x = rng.Uint64() & mask
		}
		a := sampling.RandomAssignment(rng, n, sampling.DefaultRatios[k%len(sampling.DefaultRatios)], nil)
		cm.V1.Encode(x, a)
		got := oracle.Eval(o, a)[cm.Out]
		if got != (cm.Op.Eval(x, cm.Const) != cm.Negated) {
			return false
		}
	}
	return true
}
