package fixture

import (
	"logicregression/internal/bitvec"
	"logicregression/internal/oracle"
)

// GoodBatch sends all patterns in one lane-packed batch query.
func GoodBatch(o oracle.Oracle, patterns []bitvec.Word, n int) []bitvec.Word {
	return o.EvalBatch(patterns, n)
}

// GoodSingle makes one scalar query outside any loop, which is fine.
func GoodSingle(o oracle.Oracle, a []bool) []bool {
	return oracle.Eval(o, a)
}
