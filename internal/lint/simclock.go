package lint

import (
	"go/ast"
	"go/types"
)

// SimClock rejects wall-clock reads inside simulator packages: simulated
// time must come from the event clock, never from the host. A stray
// time.Now() (or a timer) silently couples results to machine speed and
// breaks byte-stable goldens.
//
// Exempt: packages under a cmd/ path segment (driver UX
// legitimately reports host wall time), _test.go files, and functions
// annotated //edgereasoning:wallclock (the experiment runner's
// host-side timeout/profiling machinery).
var SimClock = &Analyzer{
	Name: "simclock",
	Doc: "forbid time.Now/Since/Sleep and timers in simulator packages; " +
		"sim time must come from the event clock",
	Run: runSimClock,
}

// wallClockFuncs are the time-package functions that read or wait on
// the host clock. time.Duration arithmetic and constants stay legal.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

func runSimClock(pass *Pass) error {
	if pathHasSegment(pass.Pkg.Path(), "cmd") {
		return nil
	}
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, exempt := FuncDirective(fd, "wallclock"); exempt {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || !wallClockFuncs[sel.Sel.Name] {
					return true
				}
				if !isPkgRef(pass.TypesInfo, sel.X, "time") {
					return true
				}
				pass.Reportf(sel.Pos(),
					"time.%s reads the host clock in a simulator package; derive time from the event clock "+
						"(or annotate the function //edgereasoning:wallclock with a reason)", sel.Sel.Name)
				return true
			})
		}
	}
	return nil
}

// isPkgRef reports whether expr is a reference to the package named by
// import path (e.g. the "time" in time.Now).
func isPkgRef(info *types.Info, expr ast.Expr, path string) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == path
}
