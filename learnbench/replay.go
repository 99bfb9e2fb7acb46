package main

// The stage-by-stage replay of one learn. It mirrors core.Learn and
// opt.Optimize for the benchmark's options (no parallelism, refinement,
// hidden compression or extended templates, no deadline), calling each
// layer's exported entry point itself so that the layer can be timed. The
// fidelity check in divergence is what keeps this mirror honest: when core
// changes, the replay stops matching and its numbers are not used.

import (
	"bytes"
	"fmt"
	"math/rand"

	"logicregression/internal/aig"
	"logicregression/internal/circuit"
	"logicregression/internal/core"
	"logicregression/internal/fbdt"
	"logicregression/internal/opt"
	"logicregression/internal/oracle"
	"logicregression/internal/sop"
	"logicregression/internal/support"
	"logicregression/internal/template"
)

// replayResult is what the replay of one case produced.
type replayResult struct {
	outputs []core.OutputReport
	queries int64
	preOpt  *circuit.Circuit
	final   *circuit.Circuit
	counts  map[string]float64
	// problem says why the replay could not mirror core, if it could not.
	problem string
}

// replay re-learns s stage by stage, recording one span per stage call.
func replay(t *tracer, s subject, opts core.Options) *replayResult {
	t.oracle = &timedOracle{inner: s.golden}
	counter := oracle.NewCounter(t.oracle)
	rng := rand.New(rand.NewSource(opts.Seed))
	rr := &replayResult{counts: map[string]float64{}}
	root := t.begin("replay", -1, -1)
	defer t.end(root)

	sp := t.begin("template.detect", -1, root)
	matches := template.Detect(counter, opts.Template, rng)
	t.end(sp)
	if len(matches.Bitwise) > 0 || len(matches.Affine) > 0 {
		rr.problem = "extended template matches, which the replay does not mirror"
		return rr
	}
	compByOut := make(map[int]template.CompMatch)
	for _, cm := range matches.Comparators {
		compByOut[cm.Out] = cm
	}
	linByOut := make(map[int]template.LinMatch)
	linBit := make(map[int]int)
	for _, lm := range matches.Linear {
		for bit, pos := range lm.OutVec.Ports {
			if _, taken := compByOut[pos]; bit < lm.Width && !taken {
				linByOut[pos] = lm
				linBit[pos] = bit
			}
		}
	}

	c := circuit.New()
	piSigs := make([]circuit.Signal, s.golden.NumInputs())
	for i, name := range s.golden.InputNames() {
		piSigs[i] = c.AddPI(name)
	}
	linWords := make(map[string]circuit.Word)
	for po, name := range s.golden.OutputNames() {
		var sig circuit.Signal
		var rep core.OutputReport
		if cm, ok := compByOut[po]; ok {
			sig = cm.Synthesize(c, piSigs)
			rep.Method = core.MethodComparator
		} else if lm, ok := linByOut[po]; ok {
			key := "lin:" + lm.OutVec.Stem
			w, ok := linWords[key]
			if !ok {
				w = lm.Synthesize(c, piSigs)
				linWords[key] = w
			}
			sig = w[linBit[po]]
			rep.Method = core.MethodLinear
		} else {
			sig, rep = rr.learnOutput(t, c, counter, po, piSigs, opts, rng, root)
		}
		rep.Name = name
		c.AddPO(name, sig)
		rr.outputs = append(rr.outputs, rep)
	}
	rr.queries = counter.Queries()
	rr.preOpt = c
	rr.final = rr.optimize(t, c, opts, root)
	return rr
}

// learnOutput mirrors core's support identification, exhaustive or FBDT
// construction, cover reduction and SOP synthesis for one output.
func (rr *replayResult) learnOutput(t *tracer, c *circuit.Circuit, counter *oracle.Counter, po int,
	piSigs []circuit.Signal, opts core.Options, rng *rand.Rand, root int) (circuit.Signal, core.OutputReport) {

	sp := t.begin("support.identify", po, root)
	info := support.Identify(counter, po, support.Config{R: opts.SupportR, Ratios: opts.Ratios}, rng)
	t.end(sp)
	sup := info.Support
	rr.counts["support.calls"]++
	rr.counts["support.size_sum"] += float64(len(sup))
	if len(sup) == 0 {
		return c.Const(info.TruthRatio > 0.5), core.OutputReport{Method: core.MethodConstant}
	}

	rep := core.OutputReport{Support: len(sup)}
	var cover sop.Cover
	if len(sup) <= opts.ExhaustiveThreshold {
		sp = t.begin("fbdt.exhaustive", po, root)
		res := fbdt.Exhaustive(counter, po, sup, rng)
		t.end(sp)
		cover, rep.Negated = res.Choose()
		rep.Method = core.MethodExhaustive
	} else {
		sp = t.begin("fbdt.build", po, root)
		res := fbdt.Build(counter, po, fbdt.Config{
			R:           opts.TreeR,
			Ratios:      opts.Ratios,
			LeafEpsilon: opts.LeafEpsilon,
			Candidates:  sup,
			MaxNodes:    opts.MaxTreeNodes,
			DepthFirst:  opts.DepthFirstTree,
		}, rng)
		t.end(sp)
		rr.counts["fbdt.nodes_expanded"] += float64(res.Stats.NodesExpanded)
		rr.counts["fbdt.approx_leaves"] += float64(res.Stats.ApproxLeaves)

		sp = t.begin("sop.reduce", po, root)
		onset := reduceCover(res.Onset, res.Offset)
		offset := reduceCover(res.Offset, res.Onset)
		t.end(sp)
		cover, rep.Negated = pickSmaller(onset, offset, res.RootTruthRatio)
		rep.Method = core.MethodTree
		rep.Truncated = res.Stats.Exhausted
		rep.ApproxLeaf = res.Stats.ApproxLeaves
	}
	rep.Cubes = len(cover)
	rr.counts["sop.cubes"] += float64(len(cover))
	sp = t.begin("sop.synth", po, root)
	sig := sop.SynthesizeFactored(c, cover, piSigs, rep.Negated)
	t.end(sp)
	return sig, rep
}

// reduceCover is core's cover reduction: exact expansion against the
// complementary cover, or plain minimization when the pair work is too big.
func reduceCover(cover, blockers sop.Cover) sop.Cover {
	if len(cover)*len(blockers) > 4_000_000 {
		return sop.Minimize(cover)
	}
	return sop.ExpandAgainst(cover, blockers)
}

// pickSmaller is core's onset/offset choice for tree-built outputs.
func pickSmaller(onset, offset sop.Cover, rootTruth float64) (sop.Cover, bool) {
	switch {
	case len(offset) < len(onset):
		return offset, true
	case len(onset) < len(offset):
		return onset, false
	case rootTruth > 0.5:
		return offset, true
	default:
		return onset, false
	}
}

// optimize mirrors opt.Optimize pass by pass and returns the smallest
// circuit seen, as Optimize does. ands_removed is the AND count before a
// pass minus after it; for strash, "before" is the learned circuit's
// 2-input gate count, so XOR lowering can make it negative.
func (rr *replayResult) optimize(t *tracer, c *circuit.Circuit, opts core.Options, root int) *circuit.Circuit {
	cfg := opts.Opt
	if cfg.Seed == 0 {
		cfg.Seed = opts.Seed + 1
	}
	best := c
	keep := func(s *circuit.Circuit) {
		if s.Size() < best.Size() {
			best = s
		}
	}

	sp := t.begin("opt.strash", -1, root)
	g := aig.FromCircuit(c)
	keep(g.ToCircuit())
	t.end(sp)
	rr.counts["opt.strash.ands_removed"] += float64(c.Size() - g.NumAnds())

	// pass runs one AIG-to-AIG pass under its span; consider says whether
	// Optimize looks at the result before the next pass.
	pass := func(name string, f func(*aig.AIG) *aig.AIG, consider bool) {
		sp := t.begin("opt."+name, -1, root)
		before := g.NumAnds()
		g = f(g)
		if consider {
			keep(g.ToCircuit())
		}
		t.end(sp)
		rr.counts["opt."+name+".ands_removed"] += float64(before - g.NumAnds())
	}
	pass("rewrite", opt.Rewrite, true)
	if g.NumAnds() <= cfg.RefactorBudget {
		pass("refactor", opt.Refactor, true)
	} else {
		rr.counts["opt.refactor.skipped"]++
	}
	if g.NumAnds() <= cfg.MaxFraigNodes {
		pass("fraig", func(g *aig.AIG) *aig.AIG { return opt.Fraig(g, cfg) }, false)
		pass("rewrite", opt.Rewrite, true)
	} else {
		rr.counts["opt.fraig.skipped"]++
	}
	if !cfg.DisableCollapse {
		sp := t.begin("opt.collapse", -1, root)
		s, ok := opt.Collapse(g, cfg)
		t.end(sp)
		rr.counts["opt.collapse.attempts"]++
		if ok {
			rr.counts["opt.collapse.ands_removed"] += float64(g.NumAnds() - s.Size())
			if s.Size() < best.Size() {
				best = s
				rr.counts["opt.collapse.wins"]++
			}
		}
	}
	return best
}

// divergence compares the replay with the real learn of the same case and
// says how they differ, or returns "" when the replay is faithful: the same
// (Method, Support, Cubes, Negated) per output, the same query count, the
// same pre-opt size, and the same final netlist byte for byte.
func (rr *replayResult) divergence(res *core.Result) string {
	if rr.problem != "" {
		return rr.problem
	}
	if len(rr.outputs) != len(res.Outputs) {
		return fmt.Sprintf("%d outputs, learn has %d", len(rr.outputs), len(res.Outputs))
	}
	for i, got := range rr.outputs {
		want := res.Outputs[i]
		if got.Method != want.Method || got.Support != want.Support || got.Cubes != want.Cubes || got.Negated != want.Negated {
			return fmt.Sprintf("output %s: replay %s/%d/%d/%v, learn %s/%d/%d/%v", want.Name,
				got.Method, got.Support, got.Cubes, got.Negated, want.Method, want.Support, want.Cubes, want.Negated)
		}
	}
	if rr.queries != res.Queries {
		return fmt.Sprintf("replay made %d queries, learn %d", rr.queries, res.Queries)
	}
	if n := rr.preOpt.Size(); n != res.SizeBeforeOpt {
		return fmt.Sprintf("replay pre-opt size %d, learn %d", n, res.SizeBeforeOpt)
	}
	if n := rr.final.Size(); n != res.Size {
		return fmt.Sprintf("replay final size %d, learn %d", n, res.Size)
	}
	var a, b bytes.Buffer
	if circuit.WriteNetlist(&a, rr.final) != nil || circuit.WriteNetlist(&b, res.Circuit) != nil || !bytes.Equal(a.Bytes(), b.Bytes()) {
		return "replay final netlist differs from the learn's"
	}
	return ""
}

// addCounts adds the replay's layer counts to a pass total.
func (rr *replayResult) addCounts(lt *layerTotals) {
	for k, v := range rr.counts {
		lt.counts[k] += v
	}
}
