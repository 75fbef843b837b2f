// Package interproc is the summary-based interprocedural layer under the
// whole-program analyzers (lockorder, leakcheck, hotpath). It indexes every
// function declaration across the loaded packages under a stable symbol key
// and resolves call sites to those declarations, so an analyzer can follow
// a call edge from eventbus into flow without sharing types.Object identity
// across type-checking universes (each package is checked against export
// data, so the *types.Func for flow.New seen from scinet is a different
// object than the one defined in the loaded flow package — only the key
// matches).
//
// Resolution is deliberately conservative: direct function calls, method
// calls on concrete receivers (through pointers and embedding) and method
// expressions resolve; calls through interface methods, function values and
// built-ins do not (Callee returns nil) and contribute nothing to a
// summary. That is the documented unsoundness boundary — dynamic dispatch
// is invisible — and why the hotpath analyzer pairs with a benchmark
// cross-check and leakcheck with the runtime internal/leak helper.
package interproc

import (
	"go/ast"
	"go/types"

	"sci/internal/analysis"
	"sci/internal/analysis/astutil"
)

// Func is one function declaration somewhere in the program.
type Func struct {
	// Key is the stable symbol name: pkgpath.Name for functions,
	// pkgpath.Recv.Name for methods (pointer receivers are not
	// distinguished from value receivers).
	Key  string
	Decl *ast.FuncDecl
	Pkg  *analysis.Package
}

// Program indexes every function declaration of a loaded package set.
type Program struct {
	Funcs map[string]*Func
}

// MaxDepth is the default call-graph exploration bound. Summaries are
// joined bottom-up with memoisation, so the bound only clips pathological
// chains; the repository's deepest lock-relevant chain is 4 calls.
const MaxDepth = 8

// Key derives the symbol key for a function object, or "" when the object
// cannot anchor a summary (interface methods, builtins, instantiated
// generics resolve to their origin).
func Key(obj *types.Func) string {
	if obj == nil {
		return ""
	}
	obj = obj.Origin()
	pkg := obj.Pkg()
	if pkg == nil {
		return "" // builtin or universe scope
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		named := astutil.Named(recv.Type())
		if named == nil {
			return "" // interface or weird receiver
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			return "" // dynamic dispatch: no single body
		}
		return pkg.Path() + "." + named.Obj().Name() + "." + obj.Name()
	}
	return pkg.Path() + "." + obj.Name()
}

// Build indexes pkgs. Packages type-checked against different universes
// (the real load, a fixture load) join the same program as long as their
// import paths agree.
func Build(pkgs []*analysis.Package) *Program {
	p := &Program{Funcs: make(map[string]*Func)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				key := Key(obj)
				if key == "" {
					continue
				}
				p.Funcs[key] = &Func{Key: key, Decl: fd, Pkg: pkg}
			}
		}
	}
	return p
}

// FuncOf returns the indexed entry for a declaration in pkg, or nil.
func (p *Program) FuncOf(pkg *analysis.Package, fd *ast.FuncDecl) *Func {
	obj, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
	return p.Funcs[Key(obj)]
}

// CalleeObj resolves the called function object of a call expression using
// pkg's type info: a direct function, a method on a concrete receiver, or
// a method expression. nil for interface dispatch, function values,
// builtins and conversions.
func CalleeObj(pkg *analysis.Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj, _ := pkg.TypesInfo.Uses[fun].(*types.Func)
		return obj
	case *ast.SelectorExpr:
		if sel, ok := pkg.TypesInfo.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal || sel.Kind() == types.MethodExpr {
				obj, _ := sel.Obj().(*types.Func)
				return obj
			}
			return nil // field access producing a func value
		}
		// Package-qualified call (flow.New) or type conversion.
		obj, _ := pkg.TypesInfo.Uses[fun.Sel].(*types.Func)
		return obj
	}
	return nil
}

// Callee resolves a call expression to its in-program declaration, or nil
// when the callee is dynamic, external or unresolvable.
func (p *Program) Callee(pkg *analysis.Package, call *ast.CallExpr) *Func {
	return p.Funcs[Key(CalleeObj(pkg, call))]
}

// Visit walks root's body and, depth-first, the body of every statically
// resolvable callee, to maxDepth call edges (≤ 0 means MaxDepth). Each
// function is visited at most once, so recursion terminates; walk receives
// each visited function exactly once, root first.
func (p *Program) Visit(root *Func, maxDepth int, walk func(f *Func)) {
	if maxDepth <= 0 {
		maxDepth = MaxDepth
	}
	seen := map[*Func]bool{}
	var dfs func(f *Func, depth int)
	dfs = func(f *Func, depth int) {
		if f == nil || seen[f] {
			return
		}
		seen[f] = true
		walk(f)
		if depth >= maxDepth {
			return
		}
		ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				dfs(p.Callee(f.Pkg, call), depth+1)
			}
			return true
		})
	}
	dfs(root, 0)
}
