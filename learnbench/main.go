// Command learnbench is the repository's end-to-end learn benchmark. It
// learns Table II cases of internal/cases one after another through
// core.Learn at the fixed, deterministic budget of EXPERIMENTS.md's "ours"
// column, checks every learned circuit, and prints one JSON result line.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash learnbench/run.sh --workload tree --seed 0 --seconds 40 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (learning time, process
// CPU, allocation, gates, accuracy, queries, set-up time). With
// --trace 1 it reports the per-layer split instead, from a separate traced
// run (see trace.go). Standard output carries a JSON record of the run
// (environment, cases, budget, per-pass and per-case numbers) and, as its
// last line, the result.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"logicregression/internal/cases"
	"logicregression/internal/check"
	"logicregression/internal/circuit"
	"logicregression/internal/core"
	"logicregression/internal/eval"
	"logicregression/internal/opt"
	"logicregression/internal/oracle"
)

// workload is one fixed list of Table II cases, learned in order, closed
// loop, one learn in flight.
type workload struct {
	name  string
	cases []string
	why   string
}

// The three workloads split the Table II cases by the layer that dominates
// their learn, so a change to one layer shows on one workload and not on
// another. The hard tail leaves out case_14: alone it learns for 25-30 s,
// which would cut a hard run to one pass and a traced one to over 100 s.
var workloads = []workload{
	{
		name:  "templates",
		cases: []string{"case_2", "case_3", "case_6", "case_8", "case_12", "case_15", "case_16", "case_20"},
		why:   "case_2,3,6,8,12,15,16,20 (DIAG/DATA): templates settle every output, so the learn is almost all opt, mostly BDD collapse; no support, FBDT or SOP work",
	},
	{
		name:  "tree",
		cases: []string{"case_1", "case_4", "case_5", "case_7", "case_10", "case_11", "case_13", "case_17", "case_19"},
		why:   "case_1,4,5,7,10,11,13,17,19 (learnable ECO/NEQ): support identification, exhaustive enumeration and SOP synthesis on large oracle batches, then opt on big SOP netlists",
	},
	{
		name:  "hard",
		cases: []string{"case_9", "case_18"},
		why:   "case_9,18 (unlearnable tail; case_14 left out for time): truncated FBDT growth on ~80-pattern oracle batches, so circuit simulation is most of the learn; opt almost none",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// budget is the learn budget of EXPERIMENTS.md's Table II "ours" column:
// experiments.Budget{} defaults with no wall clock binding.
type budget struct {
	SupportR     int   `json:"support_r"`
	MaxTreeNodes int   `json:"max_tree_nodes"`
	LearnerSeed  int64 `json:"learner_seed"`
	EvalPatterns int   `json:"eval_patterns"`
	EvalSeed     int64 `json:"eval_seed"`
}

// optTimeLimit stands far above any opt pass: core replaces a zero
// Opt.TimeLimit with 60 s, and no wall clock may decide the circuit.
const optTimeLimit = 24 * time.Hour

func newBudget(seed int64) budget {
	return budget{SupportR: 768, MaxTreeNodes: 600, LearnerSeed: seed + 1, EvalPatterns: 30000, EvalSeed: seed + 7919}
}

// options are the learner options of the budget. TreeR, ExhaustiveThreshold
// and the opt size gates are core's and opt's own defaults, spelled out so
// the stage replay in trace.go reads the same values core uses.
func (b budget) options() core.Options {
	return core.Options{
		Seed:                b.LearnerSeed,
		SupportR:            b.SupportR,
		MaxTreeNodes:        b.MaxTreeNodes,
		TreeR:               60,
		ExhaustiveThreshold: 18,
		Opt: opt.Config{
			TimeLimit:      optTimeLimit,
			MaxFraigNodes:  20000,
			RefactorBudget: 50000,
		},
	}
}

// subject is one case ready to learn.
type subject struct {
	name   string
	golden *oracle.CircuitOracle
}

// setUp builds the Table II cases and the golden oracles of w.
func setUp(w workload) ([]subject, error) {
	byName := make(map[string]*cases.Case)
	for _, c := range cases.All() {
		byName[c.Name] = c
	}
	out := make([]subject, 0, len(w.cases))
	for _, name := range w.cases {
		c, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("workload %s: unknown case %q", w.name, name)
		}
		out = append(out, subject{name: name, golden: oracle.FromCircuit(c.Circuit)})
	}
	return out, nil
}

// setupRounds is how often a run builds its cases; setup_s is the median of
// their thread CPU times.
const setupRounds = 25

// learnCase runs core.Learn, turning a panic (core panics on a circuit that
// fails IR verification) into a failed learn.
func learnCase(o oracle.Oracle, opts core.Options) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core.Learn panicked: %v", r)
		}
	}()
	return core.Learn(o, opts), nil
}

// caseResult is what a run knows about one case: its circuit from the
// first pass and the quality numbers measured on it.
type caseResult struct {
	Name     string  `json:"case"`
	Gates    int     `json:"gates"`
	Accuracy float64 `json:"accuracy_pct"`
	Queries  int64   `json:"queries"`
	// Seconds holds the learning-thread CPU time of each of the case's
	// learns.
	Seconds []float64 `json:"learn_s"`
	// OracleCalls and OraclePatterns count the golden-oracle traffic of
	// one learn (traced runs only).
	OracleCalls    int64  `json:"oracle_calls,omitempty"`
	OraclePatterns int64  `json:"oracle_patterns,omitempty"`
	Failures       int    `json:"failed_learns"`
	Problem        string `json:"problem,omitempty"`
	netlist        []byte
}

// checkLearn decides whether one learn failed: an error, a degraded or
// cancelled result, a netlist check.Verify rejects, a size that disagrees
// with the circuit, a netlist that differs from the case's first pass, or a
// template-matched output that misses an accuracy pattern. On the first pass
// it also measures accuracy and records the netlist.
func checkLearn(cr *caseResult, s subject, res *core.Result, learnErr error, b budget) error {
	if learnErr != nil {
		return learnErr
	}
	switch {
	case res.Degraded:
		return fmt.Errorf("degraded: %s", res.DegradedReason)
	case res.Canceled:
		return errors.New("canceled")
	}
	if err := check.Verify(res.Circuit); err != nil {
		return fmt.Errorf("netlist fails verification: %w", err)
	}
	if got := res.Circuit.Size(); got != res.Size {
		return fmt.Errorf("Result.Size %d, circuit has %d gates", res.Size, got)
	}
	var buf bytes.Buffer
	if err := circuit.WriteNetlist(&buf, res.Circuit); err != nil {
		return fmt.Errorf("write netlist: %w", err)
	}
	if cr.netlist != nil {
		if !bytes.Equal(cr.netlist, buf.Bytes()) {
			return errors.New("netlist differs from the first pass")
		}
		return nil
	}
	cr.netlist = buf.Bytes()
	cr.Gates = res.Size
	cr.Queries = res.Queries
	rep := eval.Measure(s.golden, oracle.FromCircuit(res.Circuit), eval.Config{Patterns: b.EvalPatterns, Seed: b.EvalSeed})
	cr.Accuracy = rep.Accuracy * 100
	// Template matches are probe-verified structures: they must be exact.
	for po, out := range res.Outputs {
		if isTemplate(out.Method) && rep.PerOutput[po] != 1 {
			return fmt.Errorf("template output %s scores %.5f", out.Name, rep.PerOutput[po])
		}
	}
	return nil
}

func isTemplate(m core.Method) bool {
	switch m {
	case core.MethodComparator, core.MethodLinear, core.MethodBitwise, core.MethodAffine:
		return true
	}
	return false
}

// usage is a resource sample of the process and of the calling thread.
type usage struct {
	wall   time.Time
	thread time.Duration
	cpu    time.Duration
	alloc  uint64
}

func sampleUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: time.Now(), thread: threadCPUTime(), cpu: cpuTime(), alloc: ms.TotalAlloc}
}

// threadCPUTime is the CPU time of the calling OS thread
// (CLOCK_THREAD_CPUTIME_ID). The learn runs on one goroutine locked to its
// thread, so this is the time the learn itself ran on a CPU: its wall time
// less the waits of a shared host. On the virtual machines this benchmark
// was sized on, the hypervisor stole up to 60% of the wall time of a run,
// which wall seconds cannot tell apart from a slower learner.
func threadCPUTime() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// freshStart readies the process for the next measured learn, outside the
// measurement: like testing.B before a benchmark, it collects the heap, and
// it returns free memory to the OS, so the previous case's garbage and
// retained pages land neither on this learn's time nor on its peak. It then
// starts a new peak-resident-set window: on Linux, writing 5 to clear_refs
// resets VmHWM. Where that fails, peakRSSMB keeps reporting the peak since
// the process started.
func freshStart() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set of the current window (VmHWM), or 0
// when the kernel does not report it.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// passStats is the cost of learning every case of a workload once.
type passStats struct {
	// Learn is the learning thread's CPU time (suite_s); Wall is the wall
	// time of the same learns.
	Learn   float64 `json:"suite_s"`
	Wall    float64 `json:"wall_s"`
	CPU     float64 `json:"cpu_s"`
	AllocMB float64 `json:"alloc_mb"`
	// PeakRSSMB is the largest peak resident set of one learn of the pass.
	// It is recorded here and not reported as a metric: on tree it swings
	// by a fifth from pass to pass with the GC's timing on case_19.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

func (p *passStats) add(before, after usage) {
	p.Learn += (after.thread - before.thread).Seconds()
	p.Wall += after.wall.Sub(before.wall).Seconds()
	p.CPU += (after.cpu - before.cpu).Seconds()
	p.AllocMB += float64(after.alloc-before.alloc) / (1 << 20)
}

// morePasses reports whether another pass of length last still fits in the
// measuring time. Every run makes at least one pass.
func morePasses(start time.Time, last time.Duration, seconds int) bool {
	return time.Since(start)+last <= time.Duration(seconds)*time.Second
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the JSON line before the result: what ran, where, and on what.
type record struct {
	Env      environment  `json:"env"`
	Workload string       `json:"workload"`
	Why      string       `json:"why"`
	Cases    []string     `json:"cases"`
	Seed     int64        `json:"seed"`
	Trace    int          `json:"trace"`
	Budget   budget       `json:"budget"`
	Passes   []passStats  `json:"passes,omitempty"`
	Results  []caseResult `json:"per_case"`
	Diverged []string     `json:"replay_diverged,omitempty"`
	// StealS is the CPU time the hypervisor took from the machine while
	// the passes ran; a large value marks wall-clock numbers measured on a
	// contended host.
	StealS float64 `json:"host_steal_s"`
	Spans  string  `json:"spans_file,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("learnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: templates, tree or hard")
	seed := fs.Int64("seed", 0, "workload seed: learner seed seed+1, accuracy patterns seed+7919")
	seconds := fs.Int("seconds", 40, "measuring time; passes repeat while another fits")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *seed < 0 {
		fmt.Fprintf(stderr, "learnbench: need --workload templates|tree|hard, --seconds >= 1, --trace 0|1, --seed >= 0\n")
		return 2
	}

	// Set-up and every learn run on this goroutine, locked to one thread so
	// that threadCPUTime measures them.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	var suite []subject
	setups := make([]float64, 0, setupRounds)
	for i := 0; i < setupRounds; i++ {
		t0 := threadCPUTime()
		s, err := setUp(w)
		if err != nil {
			fmt.Fprintf(stderr, "learnbench: %v\n", err)
			return 1
		}
		setups = append(setups, (threadCPUTime() - t0).Seconds())
		suite = s
	}

	b := newBudget(*seed)
	rec := record{
		Env: readEnvironment(), Workload: w.name, Why: w.why, Cases: w.cases,
		Seed: *seed, Trace: *trace, Budget: b,
	}
	var res result
	var err error
	steal := stealSeconds()
	if *trace == 1 {
		res, err = runTraced(&rec, suite, b, *seconds, stderr)
	} else {
		res = runUntraced(&rec, suite, b, *seconds, stderr)
	}
	rec.StealS = stealSeconds() - steal
	if err != nil {
		fmt.Fprintf(stderr, "learnbench: %v\n", err)
		return 1
	}
	if *trace == 0 {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rec); err != nil {
		fmt.Fprintf(stderr, "learnbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "learnbench: %v\n", err)
		return 1
	}
	return 0
}

// runUntraced learns the suite pass after pass with nothing but resource
// samples around each core.Learn call.
func runUntraced(rec *record, suite []subject, b budget, seconds int, stderr io.Writer) result {
	opts := b.options()
	results := make([]caseResult, len(suite))
	for i, s := range suite {
		results[i].Name = s.name
	}
	var passes []passStats
	attempted, failed := 0, 0
	start := time.Now()
	for {
		var ps passStats
		for i, s := range suite {
			freshStart()
			before := sampleUsage()
			res, learnErr := learnCase(s.golden, opts)
			after := sampleUsage()
			ps.add(before, after)
			ps.PeakRSSMB = max(ps.PeakRSSMB, peakRSSMB())
			results[i].Seconds = append(results[i].Seconds, (after.thread - before.thread).Seconds())
			attempted++
			if err := checkLearn(&results[i], s, res, learnErr, b); err != nil {
				failed++
				results[i].Failures++
				results[i].Problem = err.Error()
				fmt.Fprintf(stderr, "learnbench: %s pass %d: %v\n", s.name, len(passes), err)
			}
		}
		passes = append(passes, ps)
		fmt.Fprintf(stderr, "learnbench: %s pass %d: %.3f s learning, %.3f s wall\n", rec.Workload, len(passes), ps.Learn, ps.Wall)
		if !morePasses(start, time.Duration(ps.Wall*float64(time.Second)), seconds) {
			break
		}
	}
	rec.Passes, rec.Results = passes, results

	var learns, cpus, allocs []float64
	for _, p := range passes {
		learns = append(learns, p.Learn)
		cpus = append(cpus, p.CPU)
		allocs = append(allocs, p.AllocMB)
	}
	gates, queries := 0, int64(0)
	accSum, accMin := 0.0, 100.0
	for _, r := range results {
		gates += r.Gates
		queries += r.Queries
		accSum += r.Accuracy
		accMin = min(accMin, r.Accuracy)
	}
	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"suite_s":           {median(learns), "s"},
			"cpu_s":             {median(cpus), "s"},
			"alloc_mb":          {median(allocs), "MB"},
			"gates":             {float64(gates), "gates"},
			"accuracy_mean_pct": {accSum / float64(len(results)), "%"},
			"accuracy_min_pct":  {accMin, "%"},
			"queries":           {float64(queries), "queries"},
		},
	}
}
