package oracle_test

// Benchmark of the batched query engine against the scalar reference, on a
// real contest case. Running it also records the measurements:
//
//	go test -run '^$' -bench BenchmarkOracleBatch ./internal/oracle
//
// writes BENCH_oracle.json at the repository root with patterns/sec for the
// scalar, word-parallel, and batch paths and the batch-over-scalar speedup.

import (
	"encoding/json"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"logicregression/internal/cases"
	"logicregression/internal/oracle"
)

const (
	benchCase     = "case_5" // 87 inputs, 16 outputs
	benchPatterns = 4096
	benchOut      = "../../BENCH_oracle.json"
)

type benchRow struct {
	Mode            string  `json:"mode"`
	NsPerBatch      float64 `json:"ns_per_4096_patterns"`
	PatternsPerSec  float64 `json:"patterns_per_sec"`
	SpeedupVsScalar float64 `json:"speedup_vs_scalar"`
}

var benchOnce sync.Once

// BenchmarkOracleBatch times one 4096-pattern EvalBatch on a circuit oracle.
// The first run also benchmarks the scalar and 64-way word paths on the same
// workload and writes all three rows to BENCH_oracle.json.
func BenchmarkOracleBatch(b *testing.B) {
	cs, err := cases.ByName(benchCase)
	if err != nil {
		b.Fatal(err)
	}
	o := oracle.FromCircuit(cs.Circuit)
	lanes := randomLanes(rand.New(rand.NewSource(1)), o.NumInputs(), benchPatterns)

	benchOnce.Do(func() { writeBenchJSON(b, o, lanes) })

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.EvalBatch(lanes, benchPatterns)
	}
	b.ReportMetric(float64(benchPatterns), "patterns/op")
}

func writeBenchJSON(b *testing.B, o *oracle.CircuitOracle, lanes []uint64) {
	modes := []struct {
		name string
		fn   func()
	}{
		{"scalar", func() {
			// One single-pattern query per pattern: the pre-batching
			// reference cost.
			oracle.ScalarOnly(o).EvalBatch(lanes, benchPatterns)
		}},
		{"words", func() {
			// 64-way word evaluation, driven block by block.
			blockwise(o, lanes, benchPatterns)
		}},
		{"batch", func() {
			// The full batch path with amortized simulation scratch.
			o.EvalBatch(lanes, benchPatterns)
		}},
	}
	rows := make([]benchRow, len(modes))
	for i, m := range modes {
		ns := timeMode(m.fn)
		rows[i] = benchRow{
			Mode:           m.name,
			NsPerBatch:     ns,
			PatternsPerSec: benchPatterns / (ns / 1e9),
		}
	}
	for i := range rows {
		rows[i].SpeedupVsScalar = rows[0].NsPerBatch / rows[i].NsPerBatch
	}
	data, err := json.MarshalIndent(map[string]any{
		"case":     benchCase,
		"patterns": benchPatterns,
		"results":  rows,
	}, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(benchOut, append(data, '\n'), 0o644); err != nil {
		b.Logf("skipping %s: %v", benchOut, err)
	}
}

// timeMode times fn by doubling the iteration count until the wall clock per
// measurement exceeds 200ms, then returns ns per call. (testing.Benchmark
// cannot be nested inside a running benchmark — it deadlocks on the testing
// package's benchmark lock — so this times the comparison modes by hand.)
func timeMode(fn func()) float64 {
	fn() // warm-up
	for n := 1; ; n *= 2 {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(start); d >= 200*time.Millisecond {
			return float64(d.Nanoseconds()) / float64(n)
		}
	}
}
