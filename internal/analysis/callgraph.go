package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural layer under the analyzer suite: a
// CHA-style call graph over go/types spanning every loaded module (and
// fixture) package, plus per-function summaries computed over it. The
// driver builds one CallGraph per run (gatherFacts) and hands it to every
// pass through Facts.Graph, which is what lets collective/clockcharge see
// through helper chains and commsafety/arenaescape reason across
// packages.
//
// Resolution rules, in order:
//
//   - Static calls (identifier or selector naming a declared function or
//     method) become edges when the callee is declared in a loaded
//     package. Calls into GOROOT have no node and no edges — the standard
//     library is assumed not to touch the communicator, the clock, or
//     pooled arenas.
//   - Interface method calls are devirtualized CHA-style: the loaded
//     packages are scanned for concrete types implementing the interface,
//     and when exactly ONE implementation of the method exists the call
//     gets a (dynamic) edge to it. With two or more implementations the
//     call stays unresolved on purpose: interfaces with multiple
//     implementations (Parser, sinks) are the pipeline's documented
//     contract boundaries, and guessing would drown the analyzers in
//     false positives.
//   - Function values and function-typed parameters are never chased.
//   - A function literal's body is attributed to its enclosing declared
//     function — it runs on the same goroutine with the same obligations
//     — EXCEPT a literal that is the immediate target of a `go`
//     statement, which is recorded as a spawn site instead (commsafety
//     walks spawned bodies separately).

// commCollectives are the mpi.Comm methods every rank must reach in the
// same order: the collective protocol the collective analyzer enforces.
var commCollectives = map[string]bool{
	"Barrier": true, "Bcast": true, "Allgather": true, "Alltoallv": true,
	"Reduce": true, "Allreduce": true, "Scan": true, "WorldSync": true,
}

// commFallible are the mpi.Comm methods whose errors are collectively
// settled by the failure contract (PR 6): any fault injected at one ends
// with every rank erroring (world abort releases blocked peers), so an
// early `return err` guarded by one of their errors cannot strand a
// subset of ranks. Accessors (Rank, Size, Now) and Compute never fail and
// settle nothing.
var commFallible = map[string]bool{
	"Send": true, "Recv": true, "Probe": true, "SendRecv": true,
}

// fileCollectives are the mpiio.File entry points with collective
// semantics: every rank of the communicator must call them (MPI_File_*_all
// and the view rendezvous).
var fileCollectives = map[string]bool{
	"ReadAtAll": true, "ReadViewAll": true, "WriteViewAll": true, "SetView": true,
}

// A CommCall is one direct communicator-facing call recorded on a node.
type CommCall struct {
	Call   *ast.CallExpr
	Method string
	// File marks an mpiio.File collective rather than an mpi.Comm method.
	File bool
}

// Collective reports whether the call is part of the collective protocol.
func (cc CommCall) Collective() bool {
	if cc.File {
		return fileCollectives[cc.Method]
	}
	return commCollectives[cc.Method]
}

// Name is the call's display name in diagnostics.
func (cc CommCall) Name() string {
	if cc.File {
		return "mpiio.File." + cc.Method
	}
	return "mpi.Comm." + cc.Method
}

// settles reports whether an error produced by this call is collectively
// settled (every rank observes a failure, nobody hangs).
func (cc CommCall) settles() bool {
	if cc.File {
		return true // every File op settles in-band via WorldSync agreement
	}
	return commCollectives[cc.Method] || commFallible[cc.Method]
}

// A CallEdge is one resolved call site.
type CallEdge struct {
	Site   *ast.CallExpr
	Callee *types.Func
	// Dynamic marks a CHA-devirtualized interface call (unique
	// implementation) rather than a static one.
	Dynamic bool
}

// A SpawnSite is one `go` statement: either a literal body or a static
// callee runs on the new goroutine. Unresolvable spawn targets (function
// values) have both fields zero — the spawned code is outside the
// analyzable world and its contract is the interface documentation.
type SpawnSite struct {
	Stmt   *ast.GoStmt
	Body   *ast.BlockStmt // non-nil for `go func(){...}()`
	Callee *types.Func    // non-nil for `go f(...)` with a declared f
}

// A FuncNode is one declared function or method in a loaded package.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	Calls     []CallEdge
	CommCalls []CommCall
	Spawns    []SpawnSite
}

// A CallGraph spans every loaded package of one driver run.
type CallGraph struct {
	nodes map[*types.Func]*FuncNode
	pkgs  []*Package
	facts *Facts

	// Fixpoint summaries, keyed by declared function.
	collectives map[*types.Func]map[string]bool
	charges     map[*types.Func]bool
	settles     map[*types.Func]bool
	rankRet     map[*types.Func]bool
	commVia     map[*types.Func]string
	pooledRet   map[*types.Func]bool
	paramPass   map[*types.Func][]bool
	paramEsc    map[*types.Func][]bool

	// loaded is the set of packages the graph spans; liveFuncs is the
	// deadcode reachability set, computed on first use.
	loaded    map[*types.Package]bool
	liveFuncs map[*types.Func]bool
}

// Node returns the graph node for fn, or nil for functions outside the
// loaded world (GOROOT, function values).
func (g *CallGraph) Node(fn *types.Func) *FuncNode {
	if g == nil || fn == nil {
		return nil
	}
	return g.nodes[fn.Origin()]
}

// Collectives returns the sorted set of collective operations fn reaches
// transitively (its own calls plus everything its resolved callees
// reach). Empty for leaf computation.
func (g *CallGraph) Collectives(fn *types.Func) []string {
	if g == nil || fn == nil {
		return nil
	}
	set := g.collectives[fn.Origin()]
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ChargesClock reports whether fn transitively calls Comm.Compute or
// Comm.AdvanceTo — the summary "charges the virtual clock somewhere".
func (g *CallGraph) ChargesClock(fn *types.Func) bool {
	return g != nil && fn != nil && g.charges[fn.Origin()]
}

// UniformErrors reports whether fn carries a //vet:uniform doc mark: its
// error is a deterministic function of its arguments, so rank-uniform
// inputs produce the same error on every rank.
func (g *CallGraph) UniformErrors(fn *types.Func) bool {
	return g != nil && fn != nil && g.facts != nil && g.facts.Uniform[fn.Origin()]
}

// SettlesErrors reports whether an error returned by fn is collectively
// settled: fn transitively reaches a fallible communicator operation or a
// collective, whose failure contract guarantees every rank errors. An
// early return guarded by such an error cannot strand peers; one guarded
// by a purely local error can.
func (g *CallGraph) SettlesErrors(fn *types.Func) bool {
	return g != nil && fn != nil && g.settles[fn.Origin()]
}

// CommVia returns the name of one communicator operation fn transitively
// reaches ("mpi.Comm.Compute", "mpiio.File.ReadAtAll"), or "" when fn
// provably never touches the communicator through resolved calls. The
// representative is the lexicographically smallest reachable name, so
// diagnostics quoting it are deterministic.
func (g *CallGraph) CommVia(fn *types.Func) string {
	if g == nil || fn == nil {
		return ""
	}
	return g.commVia[fn.Origin()]
}

// ReturnsRankDerived reports whether fn's return value derives from
// Comm.Rank — so conditions built from it are rank-dependent even though
// no Rank() call appears at the guard.
func (g *CallGraph) ReturnsRankDerived(fn *types.Func) bool {
	return g != nil && fn != nil && g.rankRet[fn.Origin()]
}

// ReturnsPooled reports whether fn may return a slice aliasing pooled
// arena memory (its own pooled sources; passthrough of pooled arguments
// is reported separately by ParamPassthrough).
func (g *CallGraph) ReturnsPooled(fn *types.Func) bool {
	return g != nil && fn != nil && g.pooledRet[fn.Origin()]
}

// ParamPassthrough reports, per parameter, whether fn may return a slice
// derived from that parameter — so a pooled argument makes the result
// pooled at the call site.
func (g *CallGraph) ParamPassthrough(fn *types.Func) []bool {
	if g == nil || fn == nil {
		return nil
	}
	return g.paramPass[fn.Origin()]
}

// ParamEscapes reports, per parameter, whether fn stores that parameter
// (or a slice derived from it) beyond the call: a package variable, a
// channel, or a field of a non-pooled struct. Passing pooled memory at an
// escaping position leaks the arena through the call graph.
func (g *CallGraph) ParamEscapes(fn *types.Func) []bool {
	if g == nil || fn == nil {
		return nil
	}
	return g.paramEsc[fn.Origin()]
}

// buildCallGraph constructs the graph and runs every summary to fixpoint.
// facts.Pooled must already be populated; facts.Graph is set by the
// caller.
func buildCallGraph(pkgs []*Package, facts *Facts) *CallGraph {
	g := &CallGraph{
		nodes:       make(map[*types.Func]*FuncNode),
		pkgs:        pkgs,
		facts:       facts,
		collectives: make(map[*types.Func]map[string]bool),
		charges:     make(map[*types.Func]bool),
		settles:     make(map[*types.Func]bool),
		rankRet:     make(map[*types.Func]bool),
		commVia:     make(map[*types.Func]string),
		pooledRet:   make(map[*types.Func]bool),
		paramPass:   make(map[*types.Func][]bool),
		paramEsc:    make(map[*types.Func][]bool),
		loaded:      make(map[*types.Package]bool),
	}
	for _, pkg := range pkgs {
		g.loaded[pkg.Types] = true
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.nodes[fn] = &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
			}
		}
	}
	for _, node := range g.nodes {
		g.scanNode(node)
	}
	g.fixpointBoolSets()
	g.fixpointPooled()
	return g
}

// scanNode records node's call edges, communicator calls, and spawn
// sites. Spawned literal bodies are excluded (they belong to the spawn),
// every other literal body is the node's own code.
func (g *CallGraph) scanNode(node *FuncNode) {
	info := node.Pkg.Info
	skip := make(map[ast.Node]bool)
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if skip[n] {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			sp := SpawnSite{Stmt: n}
			switch fun := ast.Unparen(n.Call.Fun).(type) {
			case *ast.FuncLit:
				sp.Body = fun.Body
				skip[fun] = true
			default:
				sp.Callee = staticFunc(info, n.Call)
			}
			node.Spawns = append(node.Spawns, sp)
		case *ast.CallExpr:
			g.recordCall(node, info, n)
		}
		return true
	})
}

// recordCall classifies one call expression on a node: a communicator
// call, a static edge, or a devirtualized interface call.
func (g *CallGraph) recordCall(node *FuncNode, info *types.Info, call *ast.CallExpr) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if selection, ok := info.Selections[sel]; ok && selection.Kind() == types.MethodVal {
			recv := selection.Recv()
			if isCommType(recv) {
				node.CommCalls = append(node.CommCalls, CommCall{Call: call, Method: sel.Sel.Name})
				return
			}
			if isMPIIOFileType(recv) && fileCollectives[sel.Sel.Name] {
				node.CommCalls = append(node.CommCalls, CommCall{Call: call, Method: sel.Sel.Name, File: true})
				// Also fall through to the edge so summaries see the body.
			}
			if _, ok := recv.Underlying().(*types.Interface); ok {
				if impl := g.uniqueImpl(recv.Underlying().(*types.Interface), sel.Sel.Name); impl != nil {
					node.Calls = append(node.Calls, CallEdge{Site: call, Callee: impl, Dynamic: true})
				}
				return
			}
		}
	}
	if callee := staticFunc(info, call); callee != nil {
		node.Calls = append(node.Calls, CallEdge{Site: call, Callee: callee})
	}
}

// uniqueImpl performs the CHA step: resolve an interface method call to
// its single concrete implementation across the loaded packages, or nil
// when zero or several exist.
func (g *CallGraph) uniqueImpl(iface *types.Interface, method string) *types.Func {
	if iface.NumMethods() == 0 {
		return nil // interface{} — anything
	}
	var found *types.Func
	for _, pkg := range g.pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			T := tn.Type()
			if _, isIface := T.Underlying().(*types.Interface); isIface {
				continue
			}
			if !types.Implements(T, iface) && !types.Implements(types.NewPointer(T), iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(T), true, tn.Pkg(), method)
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if found != nil && found != fn {
				return nil // ambiguous: leave the call unresolved
			}
			found = fn
		}
	}
	return found
}

// staticFunc resolves a call to the declared function or method object it
// names, in any loaded package, or nil for builtins/function values.
func staticFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return fn.Origin()
}

// fixpointBoolSets propagates the collective-set, clock-charge,
// error-settlement, and rank-derived-return summaries to fixpoint over
// the edge relation.
func (g *CallGraph) fixpointBoolSets() {
	// Seed from direct facts.
	type rankSeed struct {
		direct  bool
		callees []*types.Func
	}
	rankSeeds := make(map[*types.Func]rankSeed)
	for fn, node := range g.nodes {
		set := make(map[string]bool)
		for _, cc := range node.CommCalls {
			if cc.Collective() {
				set[cc.Name()] = true
			}
			if !cc.File && (cc.Method == "Compute" || cc.Method == "AdvanceTo") {
				g.charges[fn] = true
			}
			if cc.settles() {
				g.settles[fn] = true
			}
			if via := g.commVia[fn]; via == "" || cc.Name() < via {
				g.commVia[fn] = cc.Name()
			}
		}
		if len(set) > 0 {
			g.collectives[fn] = set
		}
		rankSeeds[fn] = g.rankReturnSeed(node)
		if rankSeeds[fn].direct {
			g.rankRet[fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, node := range g.nodes {
			for _, e := range node.Calls {
				callee := e.Callee
				if set := g.collectives[callee]; len(set) > 0 {
					dst := g.collectives[fn]
					if dst == nil {
						dst = make(map[string]bool)
						g.collectives[fn] = dst
					}
					for name := range set {
						if !dst[name] {
							dst[name] = true
							changed = true
						}
					}
				}
				if g.charges[callee] && !g.charges[fn] {
					g.charges[fn] = true
					changed = true
				}
				if g.settles[callee] && !g.settles[fn] {
					g.settles[fn] = true
					changed = true
				}
				// Min-lattice on the representative name keeps the choice
				// deterministic across map iteration orders.
				if via := g.commVia[callee]; via != "" {
					if cur := g.commVia[fn]; cur == "" || via < cur {
						g.commVia[fn] = via
						changed = true
					}
				}
			}
			if !g.rankRet[fn] {
				for _, callee := range rankSeeds[fn].callees {
					if g.rankRet[callee] {
						g.rankRet[fn] = true
						changed = true
						break
					}
				}
			}
		}
	}
}

// rankReturnSeed inspects node's return statements: a direct Comm.Rank
// mention makes the function rank-derived immediately; calls inside
// return expressions feed the fixpoint.
func (g *CallGraph) rankReturnSeed(node *FuncNode) (seed struct {
	direct  bool
	callees []*types.Func
}) {
	info := node.Pkg.Info
	inspectNoFuncLit(node.Decl.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			ast.Inspect(res, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isCommMethodCall(info, call, "Rank") {
					seed.direct = true
					return true
				}
				if fn := staticFunc(info, call); fn != nil && g.nodes[fn] != nil {
					seed.callees = append(seed.callees, fn)
				}
				return true
			})
		}
		return true
	})
	return seed
}

// isCommMethodCall reports whether call is method(...) on an mpi.Comm
// receiver with the given name.
func isCommMethodCall(info *types.Info, call *ast.CallExpr, method string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	selection, ok := info.Selections[sel]
	return ok && selection.Kind() == types.MethodVal && isCommType(selection.Recv())
}

// isMPIIOFileType reports whether t is (a pointer to) mpiio.File — any
// package named mpiio, so fixtures can model it.
func isMPIIOFileType(t types.Type) bool {
	named, ok := derefNamed(t)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	p := named.Obj().Pkg().Path()
	return named.Obj().Name() == "File" && (p == "mpiio" || strings.HasSuffix(p, "/mpiio"))
}

// inspectNoFuncLit walks n like ast.Inspect but does not descend into
// function literal bodies: code inside a literal runs at the literal's
// own call time (or goroutine), not on the paths being analyzed.
func inspectNoFuncLit(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return f(m)
	})
}
