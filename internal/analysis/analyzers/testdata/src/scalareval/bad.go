package fixture

import "logicregression/internal/oracle"

// BadWitness queries the oracle one assignment at a time in a loop.
func BadWitness(o oracle.Oracle, pats [][]bool, out int) int {
	n := 0
	for _, a := range pats {
		if oracle.Eval(o, a)[out] { // want "per-pattern oracle Eval call inside a loop"
			n++
		}
	}
	return n
}

// BadCounted does the same through a query counter.
func BadCounted(counter *oracle.Counter, pats [][]bool) int {
	n := 0
	for i := 0; i < len(pats); i++ {
		v := oracle.Eval(counter, pats[i]) // want "per-pattern oracle Eval call inside a loop"
		if v[0] {
			n++
		}
	}
	return n
}
