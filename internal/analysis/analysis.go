// Package analysis is vectorio-vet: a suite of static analyzers that
// machine-check the determinism and safety invariants the pipeline's
// dynamic harnesses (internal/pipelinetest equivalence matrix, the chaos
// matrix) can only test after the fact. Every invariant here has already
// caused a bug class fixed in an earlier PR; the analyzers turn the
// conventions from folklore into CI failures.
//
// The suite is modeled on golang.org/x/tools/go/analysis — each checker
// is an *Analyzer with a Run(*Pass) function, a driver loads and
// type-checks packages and fans them out, and fixture tests assert
// diagnostics against // want comments — but it is built entirely on the
// standard library (go/ast, go/parser, go/types) because this module
// vendors nothing and adds no dependencies. The API shape is kept close
// enough to x/tools that porting to the real framework is mechanical.
//
// # Suppressing a diagnostic
//
// A legitimate violation site (the mpi deadlock watchdog reading the wall
// clock, say) is annotated in place:
//
//	timer := time.NewTimer(c.world.timeout) //vet:allow wallclock — watchdog timeout, not virtual time
//
// The comment names the analyzer and MUST carry a reason after a dash or
// colon; an allow without a reason is itself reported. The annotation
// suppresses diagnostics from that analyzer on its own line and the line
// directly below it (so it can sit above a long expression).
//
// # Marking pooled types
//
// The arenaescape analyzer learns which types hand out recycled memory
// from a marker in the type's doc comment:
//
//	// readArena holds one rank's reusable buffers.
//	//
//	//vet:pooled
//	type readArena struct { ... }
//
// Slices derived from a marked type's fields or methods (or from
// arena.GrowBuf) must not outlive the arena: returning one from an
// exported function, storing one in a non-pooled struct field or package
// variable, or sending one on a channel is reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //vet:allow
	// comments. Lowercase, no spaces.
	Name string

	// Doc is the one-paragraph invariant statement shown by
	// `vectorio-vet -list`.
	Doc string

	// Scope reports whether the analyzer applies to a package, given its
	// module-relative directory ("internal/core"). A nil Scope means
	// every package. The analysistest runner bypasses Scope so fixture
	// packages exercise analyzers wherever they live.
	Scope func(relDir string) bool

	// Run performs the check and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// RelDir is the package directory relative to the module root, with
	// forward slashes ("internal/core").
	RelDir string
	// Facts holds cross-package information gathered by the driver
	// before any analyzer runs (currently the //vet:pooled type set).
	Facts *Facts

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, addressed by real file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Facts carries driver-computed cross-package information into every
// pass.
type Facts struct {
	// Pooled is the set of //vet:pooled-marked types, keyed
	// "pkgpath.TypeName".
	Pooled map[string]bool
	// Uniform is the set of //vet:uniform-marked functions: their errors
	// are deterministic functions of their arguments, so rank-uniform
	// inputs fail every rank identically and an early return guarded by
	// such an error cannot strand a subset of ranks. Keyed by declared
	// function; the mark carries a mandatory reason, like //vet:allow.
	Uniform map[*types.Func]bool
	// MalformedUniform are //vet:uniform marks missing their reason; the
	// driver reports them instead of honoring them.
	MalformedUniform []token.Position
	// Graph is the whole-program call graph over every loaded package,
	// with its per-function summaries (see callgraph.go). Interprocedural
	// analyzers reach helper chains and sibling packages through it.
	Graph *CallGraph
}

// allowRe matches the body of a //vet:allow comment: the analyzer name,
// then a dash/colon-separated reason. The reason is mandatory — an allow
// that does not say why is reported instead of honored.
var allowRe = regexp.MustCompile(`^vet:allow\s+([a-z]+)\b\s*(?:[—–:-]+\s*(\S.*))?$`)

type allowMark struct {
	analyzer string
	reason   string
	pos      token.Position
}

// collectAllows scans a file's comments for //vet:allow marks. Malformed
// marks (unknown syntax is left alone; a recognized mark missing its
// reason) are returned separately so the driver can report them.
func collectAllows(fset *token.FileSet, file *ast.File) (marks []allowMark, malformed []allowMark) {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "vet:allow") {
				continue
			}
			// A nested `//` starts a comment-within-the-comment (fixture
			// want clauses, editor annotations): the mark ends there.
			if idx := strings.Index(text, "//"); idx >= 0 {
				text = strings.TrimSpace(text[:idx])
			}
			m := allowRe.FindStringSubmatch(text)
			pos := fset.Position(c.Pos())
			if m == nil || m[2] == "" {
				name := ""
				if m != nil {
					name = m[1]
				}
				malformed = append(malformed, allowMark{analyzer: name, pos: pos})
				continue
			}
			marks = append(marks, allowMark{analyzer: m[1], reason: m[2], pos: pos})
		}
	}
	return marks, malformed
}

// RunOptions configures a driver run.
type RunOptions struct {
	// ForceScope runs every analyzer on every package regardless of its
	// Scope. Used by the analysistest fixture runner, whose fixture
	// packages live outside the real invariant scopes.
	ForceScope bool
}

// Check applies analyzers to pkgs and returns the surviving diagnostics:
// findings not suppressed by a //vet:allow mark on their own line or the
// line above, plus one diagnostic per malformed mark. Diagnostics come
// back sorted by file position. Facts and the call graph span every
// package the loader has loaded, not just pkgs, so a //vet:pooled marker
// on a dependency's type is visible and deadcode sees every caller.
func (l *Loader) Check(pkgs []*Package, analyzers []*Analyzer, opt RunOptions) ([]Diagnostic, error) {
	facts := gatherFacts(l.Packages())
	var diags []Diagnostic
	// A //vet:uniform mark without a reason is reported, not honored —
	// but only when its file is in the analyzed set, so a fixture run
	// over a narrow package list does not re-report dependency marks.
	analyzedFile := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			analyzedFile[pkg.Fset.Position(f.Pos()).Filename] = true
		}
	}
	for _, pos := range facts.MalformedUniform {
		if !analyzedFile[pos.Filename] {
			continue
		}
		diags = append(diags, Diagnostic{
			Analyzer: "vetuniform",
			Pos:      pos,
			Message:  "//vet:uniform is missing its reason (want `//vet:uniform — <reason>`)",
		})
	}
	for _, pkg := range pkgs {
		// Allow marks and their validity are per-file, independent of
		// which analyzers run on the package.
		type lineKey struct {
			file string
			line int
			name string
		}
		allowed := make(map[lineKey]bool)
		for _, f := range pkg.Files {
			marks, malformed := collectAllows(pkg.Fset, f)
			for _, m := range marks {
				allowed[lineKey{m.pos.Filename, m.pos.Line, m.analyzer}] = true
				allowed[lineKey{m.pos.Filename, m.pos.Line + 1, m.analyzer}] = true
			}
			for _, m := range malformed {
				msg := "malformed //vet:allow: missing analyzer name or reason (want `//vet:allow <name> — <reason>`)"
				if m.analyzer != "" {
					msg = fmt.Sprintf("//vet:allow %s is missing its reason (want `//vet:allow %s — <reason>`)", m.analyzer, m.analyzer)
				}
				diags = append(diags, Diagnostic{Analyzer: "vetallow", Pos: m.pos, Message: msg})
			}
		}
		for _, a := range analyzers {
			if !opt.ForceScope && a.Scope != nil && !a.Scope(pkg.RelDir) {
				continue
			}
			var found []Diagnostic
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				RelDir:    pkg.RelDir,
				Facts:     facts,
				diags:     &found,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range found {
				if allowed[lineKey{d.Pos.Filename, d.Pos.Line, a.Name}] {
					continue
				}
				diags = append(diags, d)
			}
		}
	}
	// Deterministic machine-readable order: byte offset within the file
	// is the position (line/column follow from it), then analyzer, then
	// message, and exact duplicates — the same analyzer reaching the same
	// site along two call paths — collapse to one finding.
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Offset != b.Pos.Offset {
			return a.Pos.Offset < b.Pos.Offset
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out, nil
}

// gatherFacts walks every loaded package's syntax for cross-package
// markers before any analyzer runs, then builds the call graph and its
// summaries over the same package set (the graph's pooled summaries
// consume the marker set, so the markers are collected first).
func gatherFacts(pkgs []*Package) *Facts {
	facts := &Facts{Pooled: make(map[string]bool), Uniform: make(map[*types.Func]bool)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					if d.Tok != token.TYPE {
						continue
					}
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						if hasPooledMark(d.Doc) || hasPooledMark(ts.Doc) || hasPooledMark(ts.Comment) {
							facts.Pooled[pkg.Path+"."+ts.Name.Name] = true
						}
					}
				case *ast.FuncDecl:
					ok, bad := uniformMark(d.Doc)
					if bad.IsValid() {
						facts.MalformedUniform = append(facts.MalformedUniform, pkg.Fset.Position(bad))
					}
					if ok {
						if fn, isFn := pkg.Info.Defs[d.Name].(*types.Func); isFn {
							facts.Uniform[fn] = true
						}
					}
				}
			}
		}
	}
	facts.Graph = buildCallGraph(pkgs, facts)
	return facts
}

// uniformRe matches the body of a //vet:uniform function-doc marker: the
// word alone, then a dash/colon-separated reason. Like //vet:allow, the
// reason is mandatory — the mark asserts a behavioral contract ("this
// function's error is a deterministic function of its arguments") and the
// reader deserves to know why it holds.
var uniformRe = regexp.MustCompile(`^vet:uniform\s*(?:[—–:-]+\s*(\S.*))?$`)

// uniformMark scans a function's doc comment for a //vet:uniform mark.
// ok reports a well-formed mark; bad is the position of a mark missing
// its reason (zero if none).
func uniformMark(cg *ast.CommentGroup) (ok bool, bad token.Pos) {
	if cg == nil {
		return false, 0
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if !strings.HasPrefix(text, "vet:uniform") {
			continue
		}
		m := uniformRe.FindStringSubmatch(text)
		if m == nil || m[1] == "" {
			return false, c.Pos()
		}
		return true, 0
	}
	return false, 0
}

func hasPooledMark(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == "vet:pooled" {
			return true
		}
	}
	return false
}

// PooledNamed reports whether named (after pointer stripping by the
// caller) is a //vet:pooled-marked type.
func (f *Facts) PooledNamed(t types.Type) bool {
	named, ok := derefNamed(t)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return f.Pooled[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
}

// derefNamed strips pointers and aliases down to a named type.
func derefNamed(t types.Type) (*types.Named, bool) {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt, true
		default:
			return nil, false
		}
	}
}
