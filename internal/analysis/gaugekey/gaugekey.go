// Package gaugekey keeps metric cardinality bounded: every key written
// into a Range's StatsMap render — the one metric surface a stats round
// trip ships over the wire — must be either a compile-time constant or
// derived inside a loop over a bounded top-K helper — the Ledger.Top-style
// reducers that fold an unbounded per-publisher map into at most K named
// entries plus an "other" bucket.
//
// Without the check, one fmt.Sprintf keyed by GUID in a hot path grows a
// gauge per device the deployment has ever seen: an unbounded metrics
// surface that a stats round trip then ships over the wire (PR 5's
// bounded-gauge contract).
//
// A helper qualifies as bounded when its declaration carries a
// //lint:bounded directive (same package), or its qualified name appears
// in BoundedHelpers (cross-package helpers the analyzer cannot see the
// comments of). Keys the analyzer cannot justify carry a
// //lint:allow gaugekey <reason> suppression stating why the cardinality
// is bounded anyway.
package gaugekey

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sci/internal/analysis"
)

// Analyzer is the gaugekey pass.
var Analyzer = &analysis.Analyzer{
	Name: "gaugekey",
	Doc:  "StatsMap keys must be constants or derive from a bounded top-K helper",
	Run:  run,
}

// BoundedHelpers lists cross-package bounded reducers by qualified name
// (types.Func.FullName form). Same-package helpers use the //lint:bounded
// directive instead.
var BoundedHelpers = map[string]bool{
	"(*sci/internal/mediator.Mediator).ShardStats": true,
	"(*sci/internal/metrics.Ledger).Top":           true,
}

type span struct{ from, to token.Pos }

func run(pass *analysis.Pass) error {
	marked := markedHelpers(pass)
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, marked)
		}
	}
	return nil
}

// markedHelpers collects this package's //lint:bounded functions.
func markedHelpers(pass *analysis.Pass) map[types.Object]bool {
	marked := make(map[types.Object]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.HasPrefix(c.Text, "//lint:bounded") {
					if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
						marked[obj] = true
					}
				}
			}
		}
	}
	return marked
}

// boundedCall reports whether call invokes a bounded reducer.
func boundedCall(pass *analysis.Pass, marked map[types.Object]bool, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return false
	}
	return marked[fn] || BoundedHelpers[fn.FullName()]
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, marked map[types.Object]bool) {
	if fd.Name.Name != "StatsMap" {
		return
	}
	// Spans of `for ... := range <boundedCall>(...)` bodies: keys built
	// inside them inherit the helper's cardinality bound.
	var bounded []span
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if call, ok := rs.X.(*ast.CallExpr); ok && boundedCall(pass, marked, call) {
			bounded = append(bounded, span{rs.Body.Pos(), rs.Body.End()})
		}
		return true
	})
	keyOK := func(key ast.Expr) bool {
		if tv, ok := pass.TypesInfo.Types[key]; ok && tv.Value != nil {
			return true // compile-time constant
		}
		for _, s := range bounded {
			if key.Pos() >= s.from && key.End() <= s.to {
				return true
			}
		}
		return false
	}

	// Writes into a map[string]float64 inside a StatsMap method.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		x, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range x.Lhs {
			ix, ok := lhs.(*ast.IndexExpr)
			if !ok {
				continue
			}
			mt, ok := pass.TypesInfo.Types[ix.X].Type.Underlying().(*types.Map)
			if !ok {
				continue
			}
			if b, ok := mt.Key().Underlying().(*types.Basic); !ok || b.Kind() != types.String {
				continue
			}
			if b, ok := mt.Elem().Underlying().(*types.Basic); !ok || b.Kind() != types.Float64 {
				continue
			}
			if !keyOK(ix.Index) {
				pass.Reportf(ix.Index.Pos(), "unbounded StatsMap key: use a constant or derive it in a loop over a bounded top-K helper")
			}
		}
		return true
	})
}
