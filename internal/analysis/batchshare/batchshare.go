// Package batchshare enforces the batch sharing contract
// (internal/wire/doc.go): a wire.NativeBatch attached to a Message is a
// shared read-only pointer — the memory transport delivers it
// pointer-identical, possibly to several receivers — so once a batch may
// have escaped, neither its Events nor its header may be reassigned,
// appended to or mutated element-wise. Copy on escape, copy before mutate.
//
// The analyzer flags, in every package — the wire codec included, whose
// decoders only ever fill batches they just allocated:
//
//   - assignment to a field of a NativeBatch: Events, Credit, or the
//     header's Origin, ID, Query and Via
//   - assignment through the Events or Via slice (nb.Events[i] = e,
//     nb.Events[i].Seq = 7, nb.Via[i] = g, ++/--, op-assign)
//   - append whose first argument is a NativeBatch's Events or Via slice,
//     or a reslice of one
//
// A batch the function itself constructed (nb := &wire.NativeBatch{...},
// new(wire.NativeBatch), or a zero-valued local) has not escaped yet and
// is exempt — that exemption is exactly the sanctioned copy idiom: build
// a fresh batch, then attach it. Anything subtler carries a
// //lint:allow batchshare <reason> suppression.
package batchshare

import (
	"go/ast"
	"go/types"
	"strings"

	"sci/internal/analysis"
	"sci/internal/analysis/astutil"
)

// Analyzer is the batchshare pass.
var Analyzer = &analysis.Analyzer{
	Name: "batchshare",
	Doc:  "an escaped wire.NativeBatch is shared read-only: no field writes, element mutation or append except on a batch the function just built",
	Run:  run,
}

// batchField reports whether sel selects a shared field of a
// wire.NativeBatch: its events, credit or header.
func batchField(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	switch sel.Sel.Name {
	case "Events", "Credit", "Origin", "ID", "Query", "Via":
	default:
		return false
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	return astutil.IsNamed(s.Recv(), "internal/wire", "NativeBatch")
}

// writesThroughBatch reports the innermost NativeBatch field selector an
// assignment target writes through, or nil: nb.Events, nb.Events[i],
// nb.Events[i].Seq, m.Batch.Credit, nb.Via[i] all qualify.
func writesThroughBatch(pass *analysis.Pass, lhs ast.Expr) *ast.SelectorExpr {
	for {
		switch x := lhs.(type) {
		case *ast.SelectorExpr:
			if batchField(pass, x) {
				return x
			}
			lhs = x.X
		case *ast.IndexExpr:
			lhs = x.X
		case *ast.ParenExpr:
			lhs = x.X
		case *ast.StarExpr:
			lhs = x.X
		default:
			return nil
		}
	}
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkFunc(pass, fd.Body)
			return false
		})
	}
	return nil
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	fresh := astutil.FreshLocals(pass.TypesInfo, body)
	exempt := func(e ast.Expr) bool { return astutil.IsFreshBase(pass.TypesInfo, fresh, e) }
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if sel := writesThroughBatch(pass, lhs); sel != nil && !exempt(sel) {
					pass.Reportf(lhs.Pos(), "write through %s.%s mutates a shared NativeBatch; copy before mutate (wire/doc.go)",
						render(sel.X), sel.Sel.Name)
				}
			}
		case *ast.IncDecStmt:
			if sel := writesThroughBatch(pass, st.X); sel != nil && !exempt(sel) {
				pass.Reportf(st.X.Pos(), "write through %s.%s mutates a shared NativeBatch; copy before mutate (wire/doc.go)",
					render(sel.X), sel.Sel.Name)
			}
		case *ast.CallExpr:
			if id, ok := st.Fun.(*ast.Ident); ok && id.Name == "append" && len(st.Args) > 0 {
				arg := unparen(st.Args[0])
				if sl, ok := arg.(*ast.SliceExpr); ok { // append(nb.Via[:k], ...) writes the shared array too
					arg = unparen(sl.X)
				}
				if sel, ok := arg.(*ast.SelectorExpr); ok && batchField(pass, sel) && !exempt(sel) {
					pass.Reportf(st.Args[0].Pos(), "append to %s.%s may grow into a shared NativeBatch's backing array; copy on escape (wire/doc.go)",
						render(sel.X), sel.Sel.Name)
				}
			}
		}
		return true
	})
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// render prints the receiver chain of a diagnostic compactly.
func render(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return render(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return render(x.X) + "[...]"
	case *ast.ParenExpr:
		return render(x.X)
	case *ast.StarExpr:
		return "*" + render(x.X)
	case *ast.CallExpr:
		return render(x.Fun) + "(...)"
	default:
		return "batch"
	}
}
