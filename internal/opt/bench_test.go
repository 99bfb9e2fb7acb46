package opt

import (
	"math/rand"
	"testing"

	"logicregression/internal/aig"
	"logicregression/internal/cases"
)

func BenchmarkOptimizePipeline(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	c := randomCircuit(rng, 12, 400, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Optimize(c, Config{Seed: 1})
	}
	b.ReportMetric(float64(c.Size()), "input-gates")
}

func BenchmarkFraig(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	c := randomCircuit(rng, 12, 600, 4)
	g := aig.FromCircuit(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fraig(g, Config{Seed: int64(i)})
	}
}

func BenchmarkRewrite(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	c := randomCircuit(rng, 16, 2000, 4)
	g := aig.FromCircuit(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Rewrite(g)
	}
}

// BenchmarkCollapseCase collapses built-in case circuits at the default
// budget: case_2 and case_12 trip the node budget on several outputs,
// case_14 builds large BDDs with heavy ITE reuse.
func BenchmarkCollapseCase(b *testing.B) {
	for _, name := range []string{"case_2", "case_12", "case_14"} {
		cs, err := cases.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		g := aig.FromCircuit(cs.Circuit)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Collapse(g, Config{})
			}
		})
	}
}
