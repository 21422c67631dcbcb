package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// rootPatterns are the packages the program is: the commands, the
// examples, the benchmark harness, and the public facade. The driver
// loads them whatever patterns it is given, so vetting one package still
// sees every caller the program has.
var rootPatterns = []string{"./cmd/...", "./examples/...", "./perfbench/...", "./vectorio"}

// facadeDir is the root package whose whole exported API is a root: an
// importer of the module may call any of it.
const facadeDir = "vectorio"

// Deadcode reports declared functions and methods that nothing reachable
// from the program roots references. Code only tests call counts as
// unreachable (test files are never loaded): a test pinning a path the
// program never takes pins nothing the program does, and every line of
// it still has to be read, kept compiling and kept passing.
var Deadcode = &Analyzer{
	Name: "deadcode",
	Doc: "flag functions and methods unreachable from the program roots (main in cmd/*, examples/*, " +
		"perfbench; every init; the exported vectorio facade); callers in _test.go files do not count",
	Run: runDeadcode,
}

func runDeadcode(pass *Pass) error {
	live := pass.Facts.Graph.live()
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "_" {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || live[fn] {
				continue
			}
			name := fn.Name()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if named, ok := derefNamed(recv.Type()); ok {
					name = "(" + named.Obj().Name() + ")." + name
				}
			}
			pass.Reportf(fd.Name.Pos(), "%s is unreachable from the program roots: delete it, or keep it with //vet:allow deadcode — <reason>", name)
		}
	}
	return nil
}

// wellKnownMethods are methods the standard library calls through
// interfaces the program never names (fmt calls String, errors calls
// Unwrap/Is/As), keyed by name and signature.
var wellKnownMethods = map[string]string{
	"Error":    "func() string",
	"String":   "func() string",
	"GoString": "func() string",
	"Unwrap":   "func() error",
	"Is":       "func(error) bool",
	"As":       "func(any) bool",
}

// reach is the reachability walk: functions, package variables and named
// types become live from the roots, over every reference in a live body
// (a call, a function used as a value, a method selection), every
// package variable's initializer, and the method rule — a method of a
// live type is live when live code selects its name or it satisfies an
// interface method.
type reach struct {
	g      *CallGraph
	funcs  map[*types.Func]bool
	vars   map[*types.Var]bool
	types  map[*types.Named]bool
	ifaces []*types.Interface
	// selected are the method names live code selects (x.M, whatever
	// x is); unselected holds the methods of live types waiting for one.
	selected   map[string]bool
	unselected map[string][]*types.Func
	// varInit maps a package variable to its initializer.
	varInit map[*types.Var]pending
	queue   []pending
}

// pending is a live body or initializer not yet scanned, with the info
// that types it.
type pending struct {
	node ast.Node
	info *types.Info
}

// live returns the set of reachable declared functions, computed once
// per graph.
func (g *CallGraph) live() map[*types.Func]bool {
	if g.liveFuncs != nil {
		return g.liveFuncs
	}
	r := &reach{
		g:          g,
		funcs:      make(map[*types.Func]bool),
		vars:       make(map[*types.Var]bool),
		types:      make(map[*types.Named]bool),
		varInit:    make(map[*types.Var]pending),
		selected:   make(map[string]bool),
		unselected: make(map[string][]*types.Func),
	}
	seenIface := make(map[*types.Interface]bool)
	for _, pkg := range g.pkgs {
		for _, tv := range pkg.Info.Types {
			r.collectIfaces(tv.Type, seenIface)
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					for i, name := range vs.Names {
						v, ok := pkg.Info.Defs[name].(*types.Var)
						if !ok {
							continue
						}
						switch {
						case len(vs.Values) == len(vs.Names):
							r.varInit[v] = pending{vs.Values[i], pkg.Info}
						case len(vs.Values) == 1:
							r.varInit[v] = pending{vs.Values[0], pkg.Info}
						}
					}
				}
			}
		}
	}
	r.roots()
	for len(r.queue) > 0 {
		p := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		r.scan(p.node, p.info)
	}
	g.liveFuncs = r.funcs
	return r.funcs
}

// roots marks main in every main package (the driver loads those of
// rootPatterns), every init, the facade's exported API, and every
// function kept by a reasoned //vet:allow deadcode (what an allowed
// function calls is kept with it).
func (r *reach) roots() {
	for _, pkg := range r.g.pkgs {
		facade := pkg.RelDir == facadeDir
		for _, f := range pkg.Files {
			allowed := make(map[int]bool)
			marks, _ := collectAllows(pkg.Fset, f)
			for _, m := range marks {
				if m.analyzer == "deadcode" {
					allowed[m.pos.Line] = true
					allowed[m.pos.Line+1] = true
				}
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				name := fd.Name.Name
				switch {
				case fd.Recv == nil && name == "init",
					fd.Recv == nil && name == "main" && pkg.Types.Name() == "main",
					facade && fn.Exported(),
					allowed[pkg.Fset.Position(fd.Name.Pos()).Line]:
					r.markFunc(fn)
				}
			}
		}
		if facade {
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() {
				switch obj := scope.Lookup(name).(type) {
				case *types.Var:
					if obj.Exported() {
						r.markVar(obj)
					}
				case *types.TypeName:
					if obj.Exported() {
						r.markType(obj.Type())
					}
				}
			}
		}
	}
}

func (r *reach) markFunc(fn *types.Func) {
	fn = fn.Origin()
	if r.funcs[fn] {
		return
	}
	r.funcs[fn] = true
	if node := r.g.nodes[fn]; node != nil {
		r.queue = append(r.queue, pending{node.Decl, node.Pkg.Info})
	}
}

func (r *reach) markVar(v *types.Var) {
	if r.vars[v] {
		return
	}
	r.vars[v] = true
	if init, ok := r.varInit[v]; ok {
		r.queue = append(r.queue, init)
	}
}

// scan marks everything n references: functions and methods (called or
// not), package variables, method names, and the types of every
// expression.
func (r *reach) scan(n ast.Node, info *types.Info) {
	ast.Inspect(n, func(m ast.Node) bool {
		if sel, ok := m.(*ast.SelectorExpr); ok && info.Selections[sel] != nil {
			r.selectName(sel.Sel.Name)
		}
		if id, ok := m.(*ast.Ident); ok {
			switch obj := info.Uses[id].(type) {
			case *types.Func:
				r.markFunc(obj)
			case *types.Var:
				if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
					r.markVar(obj)
				}
			}
		}
		if e, ok := m.(ast.Expr); ok {
			if tv, ok := info.Types[e]; ok {
				r.markType(tv.Type)
			}
		}
		return true
	})
}

// markType makes every named type inside t live, and with each one the
// methods by which it satisfies an interface.
func (r *reach) markType(t types.Type) {
	switch t := t.(type) {
	case *types.Alias:
		r.markType(types.Unalias(t))
	case *types.Named:
		if r.types[t] {
			return
		}
		r.types[t] = true
		for i := 0; i < t.TypeArgs().Len(); i++ {
			r.markType(t.TypeArgs().At(i))
		}
		// A standard-library type's fields and methods hold nothing of
		// the loaded world.
		if r.g.loaded[t.Obj().Pkg()] {
			r.markType(t.Underlying())
			r.markMethods(t)
		}
	case *types.Pointer:
		r.markType(t.Elem())
	case *types.Slice:
		r.markType(t.Elem())
	case *types.Array:
		r.markType(t.Elem())
	case *types.Chan:
		r.markType(t.Elem())
	case *types.Map:
		r.markType(t.Key())
		r.markType(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			r.markType(t.Field(i).Type())
		}
	case *types.Signature:
		r.markTuple(t.Params())
		r.markTuple(t.Results())
	case *types.Tuple:
		r.markTuple(t)
	}
}

func (r *reach) markTuple(t *types.Tuple) {
	for i := 0; i < t.Len(); i++ {
		r.markType(t.At(i).Type())
	}
}

// selectName records a method name selected in live code: the method of
// that name of every live type is live, whether the selection goes
// through an interface, a type parameter or an embedded field.
func (r *reach) selectName(name string) {
	if r.selected[name] {
		return
	}
	r.selected[name] = true
	for _, fn := range r.unselected[name] {
		r.markFunc(fn)
	}
	delete(r.unselected, name)
}

// markMethods applies the method rule to a newly live named type: each
// of its methods that live code selects by name, or that implements an
// interface of the loaded world (or a standard-library one in
// wellKnownMethods), is live.
func (r *reach) markMethods(t *types.Named) {
	if _, ok := t.Underlying().(*types.Interface); ok {
		return
	}
	ptr := types.NewPointer(t)
	mset := types.NewMethodSet(ptr)
	for i := 0; i < mset.Len(); i++ {
		m := mset.At(i).Obj().(*types.Func)
		sig, known := wellKnownMethods[m.Name()]
		switch {
		case r.selected[m.Name()], known && types.TypeString(m.Type(), nil) == sig:
			r.markFunc(m)
		default:
			r.unselected[m.Name()] = append(r.unselected[m.Name()], m)
		}
	}
	for _, iface := range r.ifaces {
		if !types.Implements(ptr, iface) {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			im := iface.Method(i)
			if obj, _, _ := types.LookupFieldOrMethod(ptr, true, im.Pkg(), im.Name()); obj != nil {
				if fn, ok := obj.(*types.Func); ok {
					r.markFunc(fn)
				}
			}
		}
	}
}

// collectIfaces gathers the non-empty interfaces a loaded package
// mentions: expression types, and the parameters and results of the
// functions it calls (sort.Sort's sort.Interface, heap.Push's
// heap.Interface).
func (r *reach) collectIfaces(t types.Type, seen map[*types.Interface]bool) {
	if sig, ok := t.(*types.Signature); ok {
		for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
			for i := 0; i < tup.Len(); i++ {
				r.collectIfaces(tup.At(i).Type(), seen)
			}
		}
		return
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok || iface.NumMethods() == 0 || seen[iface] {
		return
	}
	seen[iface] = true
	r.ifaces = append(r.ifaces, iface)
}
