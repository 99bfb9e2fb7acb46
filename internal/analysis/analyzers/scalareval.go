package analyzers

import (
	"go/ast"
	"go/token"
	"strings"

	"logicregression/internal/analysis"
	"logicregression/internal/analysis/astutil"
)

// batchCapable lists the packages (by import-path suffix) whose hot paths
// must drive the oracle through EvalBatch. Other packages — template
// matchers probing a handful of assignments — may legitimately ask one
// pattern at a time through oracle.Eval.
var batchCapable = []string{
	"internal/sampling",
	"internal/support",
	"internal/fbdt",
	"internal/eval",
	"internal/core",
}

// ScalarEval flags per-pattern oracle.Eval calls inside loops in
// batch-capable packages.
var ScalarEval = &analysis.Analyzer{
	Name: "scalareval",
	Doc: "flags oracle.Eval called inside a loop in a batch-capable package; " +
		"collect the patterns into lanes and call Oracle.EvalBatch once instead, so " +
		"queries stay countable in blocks and ride the word-parallel evaluator",
	Run: runScalarEval,
}

func runScalarEval(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	capable := false
	for _, s := range batchCapable {
		if strings.HasSuffix(path, s) {
			capable = true
			break
		}
	}
	if !capable {
		return nil
	}
	for _, f := range pass.Files {
		// Collect loop-body extents, then flag oracle Eval calls landing
		// inside any of them.
		type span struct{ lo, hi token.Pos }
		var loops []span
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ForStmt:
				loops = append(loops, span{s.Body.Pos(), s.Body.End()})
			case *ast.RangeStmt:
				loops = append(loops, span{s.Body.Pos(), s.Body.End()})
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := astutil.CalleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Name() != "Eval" || fn.Pkg() == nil ||
				!strings.HasSuffix(fn.Pkg().Path(), "internal/oracle") {
				return true
			}
			for _, l := range loops {
				if l.lo <= call.Pos() && call.Pos() < l.hi {
					pass.Reportf(call.Pos(),
						"per-pattern oracle Eval call inside a loop; batch the patterns and use EvalBatch")
					break
				}
			}
			return true
		})
	}
	return nil
}
