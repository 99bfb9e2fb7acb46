package template

// Bitwise template family — an EXTENSION beyond the paper (its conclusion
// names "generalizing the variable grouping and template matching methods"
// as future work). Datapaths are full of bit-sliced logic: z[i] = a[i] OP
// b[i] for a lane-wise operator. Like the paper's two families, detection is
// screen-on-shared-samples + verify-with-targeted-probes, and a match
// synthesizes an exact subcircuit per output bit.
//
// The family is gated behind Config.ExtendedTemplates so the paper-faithful
// pipeline stays the default.

import (
	"fmt"
	"math/rand"

	"logicregression/internal/circuit"
	"logicregression/internal/names"
	"logicregression/internal/oracle"
	"logicregression/internal/sampling"
)

// BitwiseOp is a lane-wise Boolean operator.
type BitwiseOp uint8

// Binary lane operators, plus the unary NOT/BUF forms.
const (
	BAnd BitwiseOp = iota
	BOr
	BXor
	BNand
	BNor
	BXnor
	BNot // unary: z = NOT a
	BBuf // unary: z = a (wire renaming)
	numBitwiseOps
)

var bitwiseNames = [...]string{
	BAnd: "AND", BOr: "OR", BXor: "XOR", BNand: "NAND", BNor: "NOR",
	BXnor: "XNOR", BNot: "NOT", BBuf: "BUF",
}

func (op BitwiseOp) String() string {
	if int(op) < len(bitwiseNames) {
		return bitwiseNames[op]
	}
	return fmt.Sprintf("BitwiseOp(%d)", uint8(op))
}

// Unary reports whether the operator takes a single operand.
func (op BitwiseOp) Unary() bool { return op == BNot || op == BBuf }

// Eval applies the operator to whole words.
func (op BitwiseOp) Eval(a, b uint64) uint64 {
	switch op {
	case BAnd:
		return a & b
	case BOr:
		return a | b
	case BXor:
		return a ^ b
	case BNand:
		return ^(a & b)
	case BNor:
		return ^(a | b)
	case BXnor:
		return ^(a ^ b)
	case BNot:
		return ^a
	case BBuf:
		return a
	}
	panic("template: bad bitwise op")
}

// BitwiseMatch records z = V1 op V2 lane-wise over Width bits (V2 nil for
// unary operators).
type BitwiseMatch struct {
	OutVec names.Vector
	Op     BitwiseOp
	V1     names.Vector
	V2     *names.Vector
	Width  int
}

// Predict evaluates the match on an assignment, returning the output
// vector's value.
func (bm BitwiseMatch) Predict(assignment []bool) uint64 {
	a := bm.V1.Decode(assignment)
	var b uint64
	if bm.V2 != nil {
		b = bm.V2.Decode(assignment)
	}
	return bm.Op.Eval(a, b) & widthMask(bm.Width)
}

// Synthesize builds one signal per output bit.
func (bm BitwiseMatch) Synthesize(c *circuit.Circuit, piSigs []circuit.Signal) circuit.Word {
	a := portsToWord(bm.V1.Ports, piSigs)
	var b circuit.Word
	if bm.V2 != nil {
		b = portsToWord(bm.V2.Ports, piSigs)
	}
	out := make(circuit.Word, bm.Width)
	for i := 0; i < bm.Width; i++ {
		ai := a[i]
		switch bm.Op {
		case BNot:
			out[i] = c.NotGate(ai)
			continue
		case BBuf:
			out[i] = c.BufGate(ai)
			continue
		}
		bi := b[i]
		switch bm.Op {
		case BAnd:
			out[i] = c.And(ai, bi)
		case BOr:
			out[i] = c.Or(ai, bi)
		case BXor:
			out[i] = c.Xor(ai, bi)
		case BNand:
			out[i] = c.Nand(ai, bi)
		case BNor:
			out[i] = c.Nor(ai, bi)
		case BXnor:
			out[i] = c.Xnor(ai, bi)
		}
	}
	return out
}

// detectBitwise screens every output vector against lane-wise combinations
// of the input vectors.
func detectBitwise(o oracle.Oracle, inVecs, outVecs []names.Vector, cfg Config, rng *rand.Rand) []BitwiseMatch {
	if len(outVecs) == 0 || len(inVecs) == 0 {
		return nil
	}
	n := o.NumInputs()
	probes := make([]ioProbe, 0, cfg.Samples)
	for k := 0; k < cfg.Samples; k++ {
		a := sampling.RandomAssignment(rng, n, cfg.Ratios[k%len(cfg.Ratios)], nil)
		probes = append(probes, ioProbe{in: a, out: oracle.Eval(o, a)})
	}

	var matches []BitwiseMatch
	for _, z := range outVecs {
		if z.Width() > 64 {
			continue
		}
		if bm, ok := screenBitwiseFor(z, inVecs, probes, o, cfg, rng); ok {
			matches = append(matches, bm)
		}
	}
	return matches
}

// ioProbe is one recorded black-box query.
type ioProbe struct {
	in  []bool
	out []bool
}

func screenBitwiseFor(z names.Vector, inVecs []names.Vector, probes []ioProbe,
	o oracle.Oracle, cfg Config, rng *rand.Rand) (BitwiseMatch, bool) {

	w := z.Width()
	mask := widthMask(w)
	decodeOut := func(out []bool) uint64 {
		var x uint64
		for i, pos := range z.Ports {
			if i >= 64 {
				break
			}
			if out[pos] {
				x |= 1 << uint(i)
			}
		}
		return x
	}
	// Unary forms first (cheaper, and BBuf subsumes trivial passthroughs).
	for _, v := range inVecs {
		if v.Width() < w {
			continue
		}
		for _, op := range []BitwiseOp{BBuf, BNot} {
			bm := BitwiseMatch{OutVec: z, Op: op, V1: v, Width: w}
			if bitwiseConsistent(bm, probes, decodeOut, mask) && verifyBitwise(o, bm, cfg, rng) {
				return bm, true
			}
		}
	}
	for i := 0; i < len(inVecs); i++ {
		if inVecs[i].Width() < w {
			continue
		}
		for j := i + 1; j < len(inVecs); j++ {
			if inVecs[j].Width() < w {
				continue
			}
			for op := BAnd; op < BNot; op++ {
				bm := BitwiseMatch{OutVec: z, Op: op, V1: inVecs[i], V2: &inVecs[j], Width: w}
				if bitwiseConsistent(bm, probes, decodeOut, mask) && verifyBitwise(o, bm, cfg, rng) {
					return bm, true
				}
			}
		}
	}
	return BitwiseMatch{}, false
}

func bitwiseConsistent(bm BitwiseMatch, probes []ioProbe,
	decodeOut func([]bool) uint64, mask uint64) bool {
	for _, p := range probes {
		if decodeOut(p.out)&mask != bm.Predict(p.in) {
			return false
		}
	}
	return true
}

// verifyBitwise drives the operand lanes through targeted values: all four
// lane combinations must appear in every lane across the probe set.
func verifyBitwise(o oracle.Oracle, bm BitwiseMatch, cfg Config, rng *rand.Rand) bool {
	n := o.NumInputs()
	mask := widthMask(bm.Width)
	targets := []struct{ a, b uint64 }{
		{0, 0}, {mask, 0}, {0, mask}, {mask, mask},
	}
	for k := 0; k < cfg.Verify; k++ {
		assign := sampling.RandomAssignment(rng, n, sampling.DefaultRatios[k%len(sampling.DefaultRatios)], nil)
		if k < len(targets) {
			bm.V1.Encode(targets[k].a, assign)
			if bm.V2 != nil {
				bm.V2.Encode(targets[k].b, assign)
			}
		}
		want := bm.Predict(assign)
		out := oracle.Eval(o, assign)
		var got uint64
		for i, pos := range bm.OutVec.Ports {
			if i >= 64 {
				break
			}
			if out[pos] {
				got |= 1 << uint(i)
			}
		}
		if got&mask != want {
			return false
		}
	}
	return true
}
