package main

// The traced run. Per case and pass it makes two calls:
//
//   - the real core.Learn, with a Progress handler that bounds the core
//     phase spans and a timing wrapper around the golden oracle;
//   - a stage-by-stage replay (replay.go) that calls template, support,
//     fbdt, sop and the opt passes in core's order with one RNG seeded as
//     core seeds it, timing each stage and the oracle time inside it.
//
// A replay that does not reproduce the real learn output for output, query
// for query and byte for byte is reported as diverged, and its layer
// numbers are left out. Spans are kept in memory and written to one JSON
// file when the run ends.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"logicregression/internal/bitvec"
	"logicregression/internal/core"
	"logicregression/internal/oracle"
)

// timedOracle counts and times the calls into the golden oracle. It keeps
// the word and batch fast paths of the circuit oracle it wraps, so a learn
// through it issues exactly the calls it would issue without it.
type timedOracle struct {
	inner    *oracle.CircuitOracle
	calls    int64
	patterns int64
	busy     time.Duration
}

func (o *timedOracle) NumInputs() int        { return o.inner.NumInputs() }
func (o *timedOracle) NumOutputs() int       { return o.inner.NumOutputs() }
func (o *timedOracle) InputNames() []string  { return o.inner.InputNames() }
func (o *timedOracle) OutputNames() []string { return o.inner.OutputNames() }

func (o *timedOracle) note(n int, t0 time.Time) {
	o.busy += time.Since(t0)
	o.calls++
	o.patterns += int64(n)
}

func (o *timedOracle) Eval(a []bool) []bool {
	t0 := time.Now()
	r := o.inner.Eval(a)
	o.note(1, t0)
	return r
}

func (o *timedOracle) EvalWords(in []uint64) []uint64 {
	t0 := time.Now()
	r := o.inner.EvalWords(in)
	o.note(64, t0)
	return r
}

func (o *timedOracle) EvalBatch(patterns []bitvec.Word, n int) []bitvec.Word {
	t0 := time.Now()
	r := o.inner.EvalBatch(patterns, n)
	o.note(n, t0)
	return r
}

// span is one timed interval of the traced run.
type span struct {
	Name   string `json:"name"`
	Case   string `json:"case"`
	Pass   int    `json:"pass"`
	Output int    `json:"output"` // primary output index, -1 for a whole-case span
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	// StartNS and EndNS are offsets from the start of the run.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// OracleNS is the golden-oracle time inside the span: its child time.
	OracleNS int64 `json:"oracle_ns"`
}

func (s span) seconds() float64     { return float64(s.EndNS-s.StartNS) / 1e9 }
func (s span) selfSeconds() float64 { return float64(s.EndNS-s.StartNS-s.OracleNS) / 1e9 }

// tracer records spans; the current case, pass and oracle label new ones.
type tracer struct {
	t0     time.Time
	spans  []span
	cas    string
	pass   int
	oracle *timedOracle
}

// begin opens a span and returns its index. Until end, the span's OracleNS
// holds the oracle's busy time at the start.
func (t *tracer) begin(name string, output, parent int) int {
	t.spans = append(t.spans, span{
		Name: name, Case: t.cas, Pass: t.pass, Output: output, Parent: parent,
		StartNS: int64(time.Since(t.t0)), OracleNS: int64(t.oracle.busy),
	})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	s := &t.spans[id]
	s.EndNS = int64(time.Since(t.t0))
	s.OracleNS = int64(t.oracle.busy) - s.OracleNS
}

// tracedLearn runs the real core.Learn on a timed oracle. The Progress
// events bound the core phase spans; the oracle wrapper gives the black-box
// counts. Neither changes the learn: core guarantees that for Progress, and
// the wrapper forwards every call unchanged.
func tracedLearn(t *tracer, s subject, opts core.Options) (*core.Result, error) {
	t.oracle = &timedOracle{inner: s.golden}
	// Each phase boundary: when it passed and the oracle time by then.
	type mark struct {
		at     time.Time
		oracle time.Duration
	}
	var templates, optimize, done mark
	opts.Progress = func(p core.Progress) {
		m := mark{time.Now(), t.oracle.busy}
		switch p.Phase {
		case core.PhaseTemplates:
			templates = m
		case core.PhaseOptimize:
			optimize = m
		case core.PhaseDone:
			done = m
		}
	}
	root := t.begin("learn", -1, -1)
	start := mark{time.Now(), 0}
	res, err := learnCase(t.oracle, opts)
	t.end(root)
	if err != nil {
		return nil, err
	}
	if templates.at.IsZero() || optimize.at.IsZero() || done.at.IsZero() {
		return nil, fmt.Errorf("core.Learn skipped a progress phase")
	}
	for _, ph := range []struct {
		name     string
		from, to mark
	}{
		{"core.templates", start, templates},
		{"core.outputs", templates, optimize},
		{"core.optimize", optimize, done},
	} {
		t.spans = append(t.spans, span{
			Name: ph.name, Case: t.cas, Pass: t.pass, Output: -1, Parent: root,
			StartNS: int64(ph.from.at.Sub(t.t0)), EndNS: int64(ph.to.at.Sub(t.t0)),
			OracleNS: int64(ph.to.oracle - ph.from.oracle),
		})
	}
	return res, nil
}

// layerTotals sums one pass of the traced run.
type layerTotals struct {
	// seconds maps a span name to its summed duration, name+".oracle" to
	// the oracle time inside it, and name+".self" to the difference.
	seconds map[string]float64
	counts  map[string]float64
}

func newLayerTotals() *layerTotals {
	return &layerTotals{seconds: map[string]float64{}, counts: map[string]float64{}}
}

// addSpans adds spans to the pass totals.
func (lt *layerTotals) addSpans(spans []span) {
	for _, sp := range spans {
		lt.seconds[sp.Name] += sp.seconds()
		lt.seconds[sp.Name+".oracle"] += float64(sp.OracleNS) / 1e9
		lt.seconds[sp.Name+".self"] += sp.selfSeconds()
	}
}

// perLayerMetrics lists every per-layer metric with its unit, in report
// order. Times are medians over the passes of the run; counts are from the
// first pass (they repeat exactly from pass to pass). Span times are wall
// time; trace.suite_s is learning-thread CPU time, like suite_s, so the two
// differ by the tracing overhead.
var perLayerMetrics = []struct{ name, unit string }{
	{"trace.suite_s", "s"},
	{"core.templates_s", "s"},
	{"core.outputs_s", "s"},
	{"core.optimize_s", "s"},
	{"core.outputs.template", "count"},
	{"core.outputs.exhaustive", "count"},
	{"core.outputs.tree", "count"},
	{"core.outputs.constant", "count"},
	{"core.outputs.truncated", "count"},
	{"oracle.calls", "count"},
	{"oracle.patterns", "count"},
	{"oracle.busy_s", "s"},
	{"oracle.patterns_per_call", "patterns/call"},
	{"template.detect_s", "s"},
	{"template.hit_ratio", "ratio"},
	{"support.identify_s", "s"},
	{"support.self_s", "s"},
	{"support.mean_size", "inputs"},
	{"fbdt.build_s", "s"},
	{"fbdt.exhaustive_s", "s"},
	{"fbdt.self_s", "s"},
	{"fbdt.nodes_expanded", "count"},
	{"fbdt.approx_leaves", "count"},
	{"sop.reduce_s", "s"},
	{"sop.synth_s", "s"},
	{"sop.cubes", "count"},
	{"opt.strash_s", "s"},
	{"opt.rewrite_s", "s"},
	{"opt.refactor_s", "s"},
	{"opt.fraig_s", "s"},
	{"opt.collapse_s", "s"},
	{"opt.strash.ands_removed", "ands"},
	{"opt.rewrite.ands_removed", "ands"},
	{"opt.refactor.ands_removed", "ands"},
	{"opt.fraig.ands_removed", "ands"},
	{"opt.collapse.ands_removed", "ands"},
	{"opt.refactor.skipped", "count"},
	{"opt.fraig.skipped", "count"},
	{"opt.collapse.attempts", "count"},
	{"opt.collapse.wins", "count"},
	{"replay.diverged", "count"},
}

// runTraced makes the traced passes and derives the per-layer metrics.
func runTraced(rec *record, suite []subject, b budget, seconds int, stderr io.Writer) (result, error) {
	opts := b.options()
	t := &tracer{t0: time.Now()}
	results := make([]caseResult, len(suite))
	for i, s := range suite {
		results[i].Name = s.name
	}
	diverged := map[string]bool{}
	var passes []*layerTotals
	attempted, failed := 0, 0
	start := time.Now()
	for {
		lt := newLayerTotals()
		passStart := time.Now()
		for i, s := range suite {
			t.cas, t.pass = s.name, len(passes)
			freshStart()
			first := len(t.spans)
			thread := threadCPUTime()
			res, learnErr := tracedLearn(t, s, opts)
			thread = threadCPUTime() - thread
			attempted++
			if err := checkLearn(&results[i], s, res, learnErr, b); err != nil {
				failed++
				results[i].Failures++
				results[i].Problem = err.Error()
				fmt.Fprintf(stderr, "learnbench: %s pass %d: %v\n", s.name, len(passes), err)
				continue
			}
			results[i].Seconds = append(results[i].Seconds, thread.Seconds())
			lt.seconds["learn.thread"] += thread.Seconds()
			results[i].OracleCalls, results[i].OraclePatterns = t.oracle.calls, t.oracle.patterns
			lt.counts["oracle.calls"] += float64(t.oracle.calls)
			lt.counts["oracle.patterns"] += float64(t.oracle.patterns)
			lt.addSpans(t.spans[first:])
			countOutputs(lt, res)

			replayFirst := len(t.spans)
			rp := replay(t, s, opts)
			if why := rp.divergence(res); why != "" {
				if !diverged[s.name] {
					fmt.Fprintf(stderr, "learnbench: replay of %s diverged: %s\n", s.name, why)
				}
				diverged[s.name] = true
				continue
			}
			lt.addSpans(t.spans[replayFirst:])
			rp.addCounts(lt)
		}
		passes = append(passes, lt)
		last := time.Since(passStart)
		fmt.Fprintf(stderr, "learnbench: %s traced pass %d: %.3f s learn, %.3f s with replay\n",
			rec.Workload, len(passes), lt.seconds["learn"], last.Seconds())
		if !morePasses(start, last, seconds) {
			break
		}
	}
	rec.Results = results
	for _, s := range suite {
		if diverged[s.name] {
			rec.Diverged = append(rec.Diverged, s.name)
		}
	}

	// total is the median over passes of the summed time of the named spans.
	total := func(names ...string) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			for _, n := range names {
				xs[i] += p.seconds[n]
			}
		}
		return median(xs)
	}
	c := passes[0].counts
	values := map[string]float64{
		"trace.suite_s":            total("learn.thread"),
		"core.templates_s":         total("core.templates"),
		"core.outputs_s":           total("core.outputs"),
		"core.optimize_s":          total("core.optimize"),
		"oracle.busy_s":            total("learn.oracle"),
		"oracle.patterns_per_call": ratio(c["oracle.patterns"], c["oracle.calls"]),
		"template.detect_s":        total("template.detect"),
		"template.hit_ratio":       ratio(c["core.outputs.template"], c["outputs"]),
		"support.identify_s":       total("support.identify"),
		"support.self_s":           total("support.identify.self"),
		"support.mean_size":        ratio(c["support.size_sum"], c["support.calls"]),
		"fbdt.build_s":             total("fbdt.build"),
		"fbdt.exhaustive_s":        total("fbdt.exhaustive"),
		"fbdt.self_s":              total("fbdt.build.self", "fbdt.exhaustive.self"),
		"sop.reduce_s":             total("sop.reduce"),
		"sop.synth_s":              total("sop.synth"),
		"opt.strash_s":             total("opt.strash"),
		"opt.rewrite_s":            total("opt.rewrite"),
		"opt.refactor_s":           total("opt.refactor"),
		"opt.fraig_s":              total("opt.fraig"),
		"opt.collapse_s":           total("opt.collapse"),
		"replay.diverged":          float64(len(rec.Diverged)),
	}
	metrics := make(map[string]metric, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		v, ok := values[m.name]
		if !ok {
			v = c[m.name]
		}
		metrics[m.name] = metric{v, m.unit}
	}

	path, err := writeSpans(rec, t.spans)
	if err != nil {
		return result{}, err
	}
	rec.Spans = path
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countOutputs adds the per-method output counts of one real learn.
func countOutputs(lt *layerTotals, res *core.Result) {
	for _, out := range res.Outputs {
		lt.counts["outputs"]++
		switch {
		case isTemplate(out.Method):
			lt.counts["core.outputs.template"]++
		case out.Method == core.MethodExhaustive:
			lt.counts["core.outputs.exhaustive"]++
		case out.Method == core.MethodTree:
			lt.counts["core.outputs.tree"]++
		case out.Method == core.MethodConstant:
			lt.counts["core.outputs.constant"]++
		}
		if out.Truncated {
			lt.counts["core.outputs.truncated"]++
		}
	}
}

// writeSpans writes every span of the run to one JSON file in the build
// directory and returns its path.
func writeSpans(rec *record, spans []span) (string, error) {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", rec.Workload, rec.Seed))
	data, err := json.Marshal(spans)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}
