package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"logicregression/internal/analysis"
	"logicregression/internal/analysis/astutil"
	"logicregression/internal/analysis/flow"
)

// PanicBridge enforces the panic contract between the learner and the
// oracle layer (DESIGN.md §10): inside internal/core and internal/oracle,
// the only error-typed panic payload allowed on oracle-reachable paths is
// *oracle.Failure — the typed bridge that catchFailures translate back into
// error values. Plain string panics remain legal (they mark invariant
// violations, i.e. bugs, and must keep unwinding). Symmetrically, every
// recover() in those packages must type-check its result against
// *oracle.Failure and re-panic anything else, so a bridge never swallows a
// genuine bug.
// Oracle reachability crosses package boundaries through the facts store:
// each run exports an OracleReachable fact on every exported function whose
// summary reaches an oracle entry point, and a call to an imported function
// carrying that fact marks the caller oracle-reachable too — so a core
// helper that funnels through an exported oracle-package wrapper is held to
// the bridge contract even though it never names Eval itself.
var PanicBridge = &analysis.Analyzer{
	Name: "panicbridge",
	Doc: "in internal/core and internal/oracle: error-typed panic payloads " +
		"on oracle-reachable paths must be *oracle.Failure, and every " +
		"recover result must be type-asserted to *oracle.Failure with the " +
		"rest re-panicked; reachability crosses packages via OracleReachable facts",
	Run:       runPanicBridge,
	FactTypes: []analysis.Fact{&OracleReachable{}},
}

// An OracleReachable fact marks an exported function from whose body an
// oracle entry point (Eval, EvalBatch, ...) is reachable; panics below a
// call to it cross core.Learn's catchFailure bridge.
type OracleReachable struct{}

// AFact marks OracleReachable as a fact type.
func (*OracleReachable) AFact() {}

const failurePkg = "logicregression/internal/oracle"

// oracleEntryPoints are the method and helper names (Oracle.EvalBatch,
// Fallible.TryEvalBatch, oracle.Eval) whose calls mark a function as
// oracle-reachable: panics thrown below these calls cross the bridge that
// core.Learn's catchFailure guards.
var oracleEntryPoints = map[string]bool{
	"Eval": true, "EvalBatch": true, "TryEvalBatch": true,
}

func runPanicBridge(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if !strings.HasSuffix(path, "internal/core") && !strings.HasSuffix(path, "internal/oracle") {
		return nil
	}
	info := pass.TypesInfo
	graph := flow.BuildCallGraph(pass.Files, info)

	// Bottom-up summary: a function is oracle-reachable if its body (or a
	// same-package callee's) calls an oracle entry point, or calls an
	// imported function that another package's run proved reaches one
	// (the OracleReachable fact). Indirect calls do not propagate
	// reachability — conservative toward fewer findings.
	reaches := map[*flow.CallNode]bool{}
	bodyCallsOracle := func(body ast.Node) bool {
		found := false
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := astutil.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if oracleEntryPoints[sel.Sel.Name] {
					found = true
				}
			}
			if fn := astutil.CalleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
				if pass.ImportObjectFact(fn, &OracleReachable{}) {
					found = true
				}
			}
			return true
		})
		return found
	}
	graph.Fixpoint(func(n *flow.CallNode) bool {
		if reaches[n] {
			return false
		}
		v := bodyCallsOracle(n.Decl.Body)
		for _, c := range n.Calls {
			if c.Local != nil && reaches[c.Local] {
				v = true
			}
		}
		if v {
			reaches[n] = true
			return true
		}
		return false
	})

	for _, n := range graph.Order {
		if reaches[n] {
			checkPanicPayloads(pass, n.Decl.Body)
		}
		checkRecovers(pass, n.Decl.Body)
	}
	for _, n := range graph.Exported() {
		if reaches[n] {
			pass.ExportObjectFact(n.Fn, &OracleReachable{})
		}
	}
	return nil
}

// checkPanicPayloads flags panic(x) where x is error-typed but not
// *oracle.Failure. Re-panics of a recover() result carry interface{} and
// pass; string invariants pass; panic(err) is exactly the anti-pattern.
func checkPanicPayloads(pass *analysis.Pass, body ast.Node) {
	info := pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !astutil.IsBuiltin(info, call, "panic") || len(call.Args) != 1 {
			return true
		}
		t := info.TypeOf(call.Args[0])
		if t == nil || !implementsError(t) {
			return true
		}
		if astutil.NamedType(t, failurePkg, "Failure") {
			return true
		}
		pass.Reportf(call.Pos(),
			"panic with error payload of type %s on an oracle-reachable path; "+
				"wrap transport errors as panic(oracle.NewFailure(err)) so catchFailure can translate them",
			types.TypeString(t, types.RelativeTo(pass.Pkg)))
		return true
	})
}

// checkRecovers verifies that each recover() result is bound, type-asserted
// to *oracle.Failure, and that the assertion failure path re-panics the
// original value. A bare recover() (result discarded) swallows every panic
// — including real bugs — and is flagged. Each function literal is its own
// scope: the assertion and re-panic must live in the same deferred function
// as the recover itself to run during that unwind.
func checkRecovers(pass *analysis.Pass, body ast.Node) {
	checkRecoverScope(pass, body)
	for _, lit := range flow.FuncLits(body) {
		checkRecovers(pass, lit.Body)
	}
}

// checkRecoverScope checks the recover calls appearing directly in one
// function body, not descending into nested literals.
func checkRecoverScope(pass *analysis.Pass, body ast.Node) {
	info := pass.TypesInfo

	// Find the variable(s) the recover result is bound to, and bare
	// recovers whose result is discarded.
	var recVars []types.Object
	var recoverPos []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !astutil.IsBuiltin(info, call, "recover") {
					continue
				}
				if i < len(n.Lhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
						if obj := astutil.ObjectOf(info, id); obj != nil {
							recVars = append(recVars, obj)
							continue
						}
					}
				}
				recoverPos = append(recoverPos, call)
			}
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && astutil.IsBuiltin(info, call, "recover") {
				recoverPos = append(recoverPos, call)
			}
		}
		return true
	})
	for _, n := range recoverPos {
		pass.Reportf(n.Pos(),
			"recover() result discarded: this swallows every panic including real bugs; "+
				"bind it, assert *oracle.Failure, and re-panic the rest")
	}

	for _, obj := range recVars {
		asserted, repanicked := false, false
		ast.Inspect(body, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			switch n := n.(type) {
			case *ast.TypeAssertExpr:
				if usesObj(info, n.X, obj) && n.Type != nil {
					if t := info.TypeOf(n.Type); t != nil && astutil.NamedType(t, failurePkg, "Failure") {
						asserted = true
					}
				}
			case *ast.CallExpr:
				if astutil.IsBuiltin(info, n, "panic") && len(n.Args) == 1 && usesObj(info, n.Args[0], obj) {
					repanicked = true
				}
			case *ast.TypeSwitchStmt:
				// switch v := rec.(type) counts as a typed inspection when
				// a *oracle.Failure case is present.
				if ta, ok := stripAssign(n.Assign); ok && usesObj(info, ta.X, obj) {
					for _, c := range n.Body.List {
						cc := c.(*ast.CaseClause)
						for _, te := range cc.List {
							if t := info.TypeOf(te); t != nil && astutil.NamedType(t, failurePkg, "Failure") {
								asserted = true
							}
						}
					}
				}
			}
			return true
		})
		switch {
		case !asserted:
			pass.Reportf(obj.Pos(),
				"recover result %s is never type-asserted to *oracle.Failure; "+
					"only Failure panics may be translated to errors", obj.Name())
		case !repanicked:
			pass.Reportf(obj.Pos(),
				"recover result %s is asserted but non-Failure values are not re-panicked; "+
					"a swallowed bug panic corrupts the run silently", obj.Name())
		}
	}
}

// stripAssign extracts the type-assert expression from a type switch's
// assign statement (either `v := x.(type)` or bare `x.(type)`).
func stripAssign(s ast.Stmt) (*ast.TypeAssertExpr, bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			ta, ok := s.Rhs[0].(*ast.TypeAssertExpr)
			return ta, ok
		}
	case *ast.ExprStmt:
		ta, ok := s.X.(*ast.TypeAssertExpr)
		return ta, ok
	}
	return nil, false
}

func usesObj(info *types.Info, e ast.Expr, obj types.Object) bool {
	id, ok := astutil.Unparen(e).(*ast.Ident)
	return ok && astutil.ObjectOf(info, id) == obj
}

func implementsError(t types.Type) bool {
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errType)
}
