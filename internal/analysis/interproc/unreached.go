package interproc

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"sci/internal/analysis"
)

// Unreached is the whole-program reachability report FindUnreached makes.
// Each entry reads "file:line:col: kind symbol".
type Unreached struct {
	// SimOnly lists what only internal/sim, bench or cmd/scibench reach.
	SimOnly []string `json:"sim_only"`
	// Nothing lists what no loaded code reaches.
	Nothing []string `json:"nothing"`
}

// decl is one package-level declaration, filed under its symbol key.
type decl struct {
	node ast.Node // walked when the key is reached
	pkg  *analysis.Package
	obj  types.Object
}

type reach struct {
	decls   map[string][]*decl
	ifaces  map[string]bool // sigKey of every interface method in sight
	reached map[string]bool
	work    []string
}

// FindUnreached lists each exported func, method, type, const and var of
// module's internal/ packages, outside internal/analysis and internal/sim,
// that no deployed root reaches. module is the import path of the module's
// root package ("sci" for this repository).
//
// The deployed roots are main of cmd/scid, cmd/sciquery and examples/*,
// every init those programs and the root package link, and every exported
// name of the root package, where an alias makes its type's exported
// methods roots too. From a root the walk follows each identifier that
// names a package-level object: calls, method values, type, const and var
// uses, and a var's initialiser. A method of a reached type counts as
// reached when some interface in sight has a method of the same name and
// signature, since a call through an interface names no method body.
//
// Only the packages given are walked, so over a load without _test.go
// files a name only tests use is reached from nothing: no test deploys it.
func FindUnreached(pkgs []*analysis.Package, module string) *Unreached {
	r := &reach{decls: map[string][]*decl{}, ifaces: map[string]bool{}, reached: map[string]bool{}}
	byPath := map[string]*analysis.Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
		r.index(p)
	}
	under := func(path string, dirs ...string) bool {
		for _, d := range dirs {
			d = module + "/" + d
			if path == d || strings.HasPrefix(path, d+"/") {
				return true
			}
		}
		return false
	}
	linked := map[string]bool{}
	var link func(path string) // marks the init of path and of all it imports
	link = func(path string) {
		if p := byPath[path]; p != nil && !linked[path] {
			linked[path] = true
			r.mark(path + ".init")
			for _, imp := range p.Pkg.Imports() {
				link(imp.Path())
			}
		}
	}
	for _, p := range pkgs {
		if under(p.Path, "cmd/scid", "cmd/sciquery", "examples") {
			r.mark(p.Path + ".main")
			link(p.Path)
		} else if p.Path == module {
			link(p.Path)
			r.exports(p)
		}
	}
	r.run()
	live := make(map[string]bool, len(r.reached))
	for k := range r.reached {
		live[k] = true
	}
	// The experiments' roots: every declaration under their directories.
	for k, ds := range r.decls {
		for _, d := range ds {
			if under(d.pkg.Path, "internal/sim", "bench", "cmd/scibench") {
				link(d.pkg.Path)
				r.mark(k)
			}
		}
	}
	r.run()

	var cands []*decl
	for k, ds := range r.decls {
		for _, d := range ds {
			if !live[k] && ast.IsExported(d.obj.Name()) &&
				under(d.pkg.Path, "internal") && !under(d.pkg.Path, "internal/analysis", "internal/sim") {
				cands = append(cands, d)
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].obj.Pos() < cands[j].obj.Pos() })
	rep := &Unreached{SimOnly: []string{}, Nothing: []string{}}
	for _, d := range cands {
		k, kind := objKey(d.obj), strings.Fields(types.ObjectString(d.obj, nil))[0]
		e := fmt.Sprintf("%s: %s %s", d.pkg.Fset.Position(d.obj.Pos()), kind, k)
		if r.reached[k] {
			rep.SimOnly = append(rep.SimOnly, e)
		} else {
			rep.Nothing = append(rep.Nothing, e)
		}
	}
	return rep
}

// index files p's package-level declarations and the methods of every
// interface p or a package it imports names.
func (r *reach) index(p *analysis.Package) {
	add := func(id *ast.Ident, node ast.Node) {
		obj := p.TypesInfo.Defs[id]
		if k := objKey(obj); k != "" {
			r.decls[k] = append(r.decls[k], &decl{node: node, pkg: p, obj: obj})
		}
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(d.Name, d)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, s)
						}
					}
				}
			}
		}
	}
	for _, tv := range p.TypesInfo.Types {
		r.addIface(tv.Type)
	}
	seen := map[*types.Package]bool{}
	var scan func(pkg *types.Package)
	scan = func(pkg *types.Package) {
		if !seen[pkg] {
			seen[pkg] = true
			for _, n := range pkg.Scope().Names() {
				if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok {
					r.addIface(tn.Type())
				}
			}
			for _, imp := range pkg.Imports() {
				scan(imp)
			}
		}
	}
	scan(p.Pkg)
	r.addIface(types.Universe.Lookup("error").Type())
}

func (r *reach) addIface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			r.ifaces[sigKey(it.Method(i))] = true
		}
	}
}

// exports marks every exported name of the root package p, and every
// exported method of a type one of its aliases names.
func (r *reach) exports(p *analysis.Package) {
	for k, ds := range r.decls {
		for _, d := range ds {
			if d.pkg != p || !ast.IsExported(d.obj.Name()) {
				continue
			}
			r.mark(k)
			if tn, ok := d.obj.(*types.TypeName); ok && tn.IsAlias() {
				r.methods(tn.Type(), (*types.Func).Exported)
			}
		}
	}
}

func (r *reach) mark(k string) {
	if k != "" && !r.reached[k] {
		r.reached[k] = true
		r.work = append(r.work, k)
	}
}

// run drains the work list: a reached declaration marks every
// package-level object its syntax names, and a reached defined type the
// methods an interface could call.
func (r *reach) run() {
	for len(r.work) > 0 {
		k := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		for _, d := range r.decls[k] {
			ast.Inspect(d.node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					r.mark(objKey(d.pkg.TypesInfo.Uses[id]))
				}
				return true
			})
			switch o := d.obj.(type) {
			case *types.Const: // an iota run names its type once
				if named, ok := types.Unalias(o.Type()).(*types.Named); ok {
					r.mark(objKey(named.Obj()))
				}
			case *types.TypeName:
				if !o.IsAlias() && !types.IsInterface(o.Type()) {
					r.methods(o.Type(), func(m *types.Func) bool { return r.ifaces[sigKey(m)] })
				}
			}
		}
	}
}

// methods marks each method of *T, promoted ones included, that keep
// accepts, where T is the defined type t names.
func (r *reach) methods(t types.Type, keep func(*types.Func) bool) {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return
	}
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		if m := ms.At(i).Obj().(*types.Func); keep(m) {
			r.mark(Key(m))
		}
	}
}

// objKey is the symbol key of a package-level object: Key for functions
// and methods, pkgpath.Name for types, consts and vars, "" otherwise.
func objKey(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		return Key(o)
	case *types.Var:
		if o.IsField() {
			return ""
		}
	case *types.TypeName, *types.Const:
	default:
		return ""
	}
	if pkg := obj.Pkg(); pkg != nil && obj.Parent() == pkg.Scope() {
		return pkg.Path() + "." + obj.Name()
	}
	return ""
}

// sigKey renders a method's name and parameter and result types with
// package paths, so a method and an interface method checked in different
// universes compare equal.
func sigKey(m *types.Func) string {
	sig := m.Type().(*types.Signature)
	var b bytes.Buffer
	b.WriteString(m.Name())
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tup.Len(); i++ {
			types.WriteType(&b, tup.At(i).Type(), func(p *types.Package) string { return p.Path() })
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	fmt.Fprint(&b, sig.Variadic())
	return b.String()
}
