// Package lint is the simulator's static-analysis layer: a small,
// dependency-free core that mirrors the golang.org/x/tools/go/analysis
// API shape (Analyzer, Pass, diagnostics) plus the five project
// analyzers that turn the repository's dynamic contracts — determinism,
// seeded randomness, byte-stable reports, allocation-free hot loops,
// zero-overhead-when-off tracing — into compile-time checks.
//
// The x/tools module is not vendored here (the build must work fully
// offline), so the core re-implements the minimal surface the analyzers
// need: package loading over the standard library's go/parser +
// go/types (stdlib dependencies are type-checked through the "source"
// importer, so no pre-built export data is required), a Pass with
// resolved type information, and an analysistest-style fixture runner
// (see linttest.go). Swapping the core for the real go/analysis driver
// later is a mechanical change — the analyzer bodies only consume
// Fset/Files/Pkg/TypesInfo.
//
// # Directives
//
// The analyzers understand three comment directives:
//
//	//edgereasoning:hotpath [bench=BenchmarkName]
//	    on a function declaration: the function is a serving hot path
//	    and must stay free of allocating constructs (see hotpath.go).
//	    The optional bench= argument names the BENCH_serve.json target
//	    that gates the function dynamically; cmd/benchcheck warns when
//	    it is missing from the baseline.
//
//	//edgereasoning:wallclock -- <reason>
//	    on a function declaration: the function intentionally reads the
//	    host clock (driver UX, runner timeouts) and is exempt from the
//	    simclock analyzer.
//
//	//edgereasoning:tracer
//	    on a type declaration: values of this type are nil when tracing
//	    is off, so every method call on it must be nil-guarded (the
//	    traceoff analyzer enforces this alongside telemetry.Tracer).
//
//	//edgereasoning:allow <analyzer> [-- <reason>]
//	    on or immediately above a statement: suppresses that analyzer's
//	    diagnostics for the annotated line. Used for the handful of
//	    deliberate exceptions (e.g. the one-time floor allocation of a
//	    queue.Queue's buffer).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check. The shape deliberately
// matches golang.org/x/tools/go/analysis.Analyzer so the run functions
// port unchanged if the real driver becomes available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //edgereasoning:allow directives.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Run inspects one package and reports diagnostics through the pass.
	Run func(*Pass) error
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report receives each diagnostic. The driver sets it; analyzers
	// call Reportf.
	Report func(Diagnostic)

	allowIndex map[string]map[int][]string // filename -> line -> allowed analyzer names
}

// A Diagnostic is one finding, positioned for editor navigation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a diagnostic at pos unless an
// //edgereasoning:allow directive suppresses this analyzer on that
// line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allowedAt(position) {
		return
	}
	p.Report(Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// allowedAt reports whether an allow directive for this pass's analyzer
// covers the line at position (the directive's own line and the line
// directly below it are both covered, so the comment can sit above or
// trail the flagged statement).
func (p *Pass) allowedAt(position token.Position) bool {
	if p.allowIndex == nil {
		p.allowIndex = buildAllowIndex(p.Fset, p.Files)
	}
	for _, name := range p.allowIndex[position.Filename][position.Line] {
		if name == p.Analyzer.Name {
			return true
		}
	}
	return false
}

func buildAllowIndex(fset *token.FileSet, files []*ast.File) map[string]map[int][]string {
	idx := make(map[string]map[int][]string)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := idx[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					idx[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], names...)
				lines[pos.Line+1] = append(lines[pos.Line+1], names...)
			}
		}
	}
	return idx
}

// parseAllow extracts analyzer names from an
// "//edgereasoning:allow a b -- reason" comment.
func parseAllow(text string) ([]string, bool) {
	const prefix = "//edgereasoning:allow"
	if !strings.HasPrefix(text, prefix) {
		return nil, false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, prefix))
	if i := strings.Index(rest, "--"); i >= 0 {
		rest = strings.TrimSpace(rest[:i])
	}
	names := strings.Fields(rest)
	return names, len(names) > 0
}

// Directive is one parsed //edgereasoning: function or type directive.
type Directive struct {
	// Kind is the word after the colon: "hotpath", "wallclock", "tracer".
	Kind string
	// Args holds key=value or bare arguments after the kind, before any
	// "--"-introduced free-form reason.
	Args []string
}

// Arg returns the value of a key=value argument, or "" when absent.
func (d Directive) Arg(key string) string {
	for _, a := range d.Args {
		if v, ok := strings.CutPrefix(a, key+"="); ok {
			return v
		}
	}
	return ""
}

// parseDirective recognizes "//edgereasoning:<kind> args... [-- reason]"
// comments, excluding allow (which is line-scoped, not decl-scoped).
func parseDirective(text string) (Directive, bool) {
	const prefix = "//edgereasoning:"
	if !strings.HasPrefix(text, prefix) {
		return Directive{}, false
	}
	rest := strings.TrimPrefix(text, prefix)
	if i := strings.Index(rest, "--"); i >= 0 {
		rest = rest[:i]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 || fields[0] == "allow" {
		return Directive{}, false
	}
	return Directive{Kind: fields[0], Args: fields[1:]}, true
}

// declDirectives parses every //edgereasoning: directive in a
// declaration's doc comment.
func declDirectives(doc *ast.CommentGroup) []Directive {
	if doc == nil {
		return nil
	}
	var out []Directive
	for _, c := range doc.List {
		if d, ok := parseDirective(c.Text); ok {
			out = append(out, d)
		}
	}
	return out
}

// FuncDirective returns the named directive from a function
// declaration's doc comment, if present.
func FuncDirective(fd *ast.FuncDecl, kind string) (Directive, bool) {
	for _, d := range declDirectives(fd.Doc) {
		if d.Kind == kind {
			return d, true
		}
	}
	return Directive{}, false
}

// pathHasSegment reports whether an import path contains seg as a whole
// path element ("edgereasoning/cmd/simlint" has segment "cmd").
func pathHasSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// pathHasSuffix reports whether path ends with the given slash-separated
// suffix on a path-element boundary.
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// isTestFile reports whether pos lies in a _test.go file. The standard
// loader skips test files entirely; this guard keeps the exemption
// explicit for fixture packages and future loaders that include them.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer —
// the deterministic order the multichecker prints in.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// funcScopeOf returns the types.Scope of the function literal or
// declaration node, or nil.
func funcScopeOf(info *types.Info, node ast.Node) *types.Scope {
	switch n := node.(type) {
	case *ast.FuncDecl:
		if obj, ok := info.Defs[n.Name].(*types.Func); ok {
			return obj.Scope()
		}
	case *ast.FuncLit:
		if sc, ok := info.Scopes[n.Type]; ok {
			return sc
		}
	}
	return nil
}
