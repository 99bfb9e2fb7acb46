package bdd

import (
	"math/rand"
	"testing"
)

func BenchmarkBuildAdderBDD(b *testing.B) {
	// 16-bit adder output bit 15 with interleaved variable order (the
	// good order: linear-size BDD).
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewManager(32, 0)
		// a_j at var 2j, b_j at var 2j+1.
		carry := False
		var sum Ref
		for j := 0; j < 16; j++ {
			a := m.Var(2 * j)
			bb := m.Var(2*j + 1)
			axb := m.Xor(a, bb)
			sum = m.Xor(axb, carry)
			carry = m.Or(m.And(a, bb), m.And(axb, carry))
		}
		_ = sum
	}
}

func BenchmarkISOPRandomFunction(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	table := make([]bool, 1<<12)
	for i := range table {
		table[i] = rng.Intn(2) == 1
	}
	vars := make([]int, 12)
	for i := range vars {
		vars[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewManager(12, 0)
		root := FromTruthTable(m, table, vars)
		cover := m.ISOP(root)
		if len(cover) == 0 {
			b.Fatal("empty cover for a random function")
		}
	}
}

func BenchmarkFromTruthTable18(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	table := make([]bool, 1<<18)
	for i := range table {
		table[i] = rng.Intn(5) == 0
	}
	vars := make([]int, 18)
	for i := range vars {
		vars[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewManager(18, 0)
		FromTruthTable(m, table, vars)
	}
}
