package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPath is the static complement of the cmd/benchcheck allocs/op
// gate: functions annotated //edgereasoning:hotpath must not contain
// allocating constructs. The annotation marks the serving inner loops
// whose allocs/op the benchmark trajectory freezes (engine admission/
// decode leaves, kvcache handle fast paths, fleet ingress dispatch
// leaves, telemetry's record path); the analyzer rejects the construct
// classes that would show up there as new allocations:
//
//   - closures capturing outer variables (the closure header escapes)
//   - interface boxing of concrete values (arguments, assignments,
//     conversions, returns)
//   - fmt calls (always allocate: boxing plus formatting buffers)
//   - string concatenation (non-constant)
//   - map/slice composite literals, make, new
//   - append into a slice declared fresh in the function without
//     pre-allocation
//
// A deliberate, measured allocation (e.g. a queue.Queue's buffer, made
// at its floor capacity once per queue) carries an
// //edgereasoning:allow hotpath directive with its justification.
//
// The optional bench=BenchmarkName argument names the BENCH_serve.json
// target that gates the function dynamically; cmd/benchcheck warns
// when an annotated function's benchmark is missing from the baseline.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc: "forbid allocating constructs in //edgereasoning:hotpath " +
		"functions (static complement of the benchcheck allocs/op gate)",
	Run: runHotPath,
}

func runHotPath(pass *Pass) error {
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, hot := FuncDirective(fd, "hotpath"); !hot {
				continue
			}
			hc := &hotChecker{pass: pass, fresh: freshSlices(pass.TypesInfo, fd.Body)}
			var sig *types.Signature
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				sig, _ = obj.Type().(*types.Signature)
			}
			hc.walk(fd.Body, sig, fd)
		}
	}
	return nil
}

type hotChecker struct {
	pass *Pass
	// fresh holds slice variables declared in the function without an
	// initializer — appending to them grows from nil.
	fresh map[types.Object]bool
}

// freshSlices collects `var s []T` declarations (no initializer) in the
// function body.
func freshSlices(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		decl, ok := n.(*ast.DeclStmt)
		if !ok {
			return true
		}
		gd, ok := decl.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return true
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) > 0 {
				continue
			}
			for _, name := range vs.Names {
				obj := info.Defs[name]
				if obj == nil {
					continue
				}
				if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// walk visits every node under n, with sig tracking the innermost
// function's signature for return-boxing checks. enclosing is the
// function node whose scope defines "outer" for closure captures.
func (hc *hotChecker) walk(n ast.Node, sig *types.Signature, enclosing ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch node := m.(type) {
		case *ast.FuncLit:
			if cap := hc.captured(node, enclosing); cap != "" {
				hc.pass.Reportf(node.Pos(), "closure captures %q and allocates on the hot path", cap)
			}
			if lt, ok := hc.pass.TypesInfo.Types[node].Type.(*types.Signature); ok {
				hc.walk(node.Body, lt, enclosing)
			}
			return false // body walked above with its own signature
		case *ast.CallExpr:
			hc.call(node)
		case *ast.BinaryExpr:
			if node.Op == token.ADD && hc.isNonConstString(node) {
				hc.pass.Reportf(node.Pos(), "string concatenation allocates on the hot path")
			}
		case *ast.AssignStmt:
			hc.assign(node)
		case *ast.CompositeLit:
			tv, ok := hc.pass.TypesInfo.Types[node]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				hc.pass.Reportf(node.Pos(), "map literal allocates on the hot path")
			case *types.Slice:
				hc.pass.Reportf(node.Pos(), "slice literal allocates on the hot path")
			}
		case *ast.ReturnStmt:
			hc.returns(node, sig)
		}
		return true
	})
}

// captured returns the name of a variable the closure captures from the
// enclosing function, or "".
func (hc *hotChecker) captured(fl *ast.FuncLit, enclosing ast.Node) string {
	name := ""
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := hc.pass.TypesInfo.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured iff declared inside the enclosing function but
		// outside this literal.
		if v.Pos() > enclosing.Pos() && v.Pos() < enclosing.End() &&
			(v.Pos() < fl.Pos() || v.Pos() > fl.End()) {
			name = v.Name()
		}
		return true
	})
	return name
}

func (hc *hotChecker) call(call *ast.CallExpr) {
	info := hc.pass.TypesInfo
	// Builtins and fmt.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			hc.pass.Reportf(call.Pos(), "fmt.%s allocates on the hot path", fn.Name())
			return
		}
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				hc.pass.Reportf(call.Pos(), "make allocates on the hot path")
			case "new":
				hc.pass.Reportf(call.Pos(), "new allocates on the hot path")
			case "append":
				if len(call.Args) > 0 {
					if dst, ok := call.Args[0].(*ast.Ident); ok {
						if obj := info.Uses[dst]; obj != nil && hc.fresh[obj] {
							hc.pass.Reportf(call.Pos(),
								"append into %q grows from nil on the hot path; pre-allocate it outside", dst.Name)
						}
					}
				}
			}
			return
		}
	}
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	// Conversion to an interface type boxes.
	if tv.IsType() {
		if isIface(tv.Type) && len(call.Args) == 1 && hc.boxes(tv.Type, call.Args[0]) {
			hc.pass.Reportf(call.Pos(), "conversion to interface boxes on the hot path")
		}
		return
	}
	// Concrete arguments passed to interface parameters box.
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i == params.Len()-1 && !sig.Variadic()):
			pt = params.At(i).Type()
		case params.Len() > 0:
			pt = params.At(params.Len() - 1).Type()
			if sl, ok := pt.(*types.Slice); ok && sig.Variadic() && !call.Ellipsis.IsValid() {
				pt = sl.Elem()
			}
		default:
			continue
		}
		if hc.boxes(pt, arg) {
			hc.pass.Reportf(arg.Pos(), "argument boxes a concrete value into an interface on the hot path")
		}
	}
}

func (hc *hotChecker) assign(as *ast.AssignStmt) {
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 {
		if tv, ok := hc.pass.TypesInfo.Types[as.Lhs[0]]; ok {
			if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
				hc.pass.Reportf(as.Pos(), "string concatenation allocates on the hot path")
			}
		}
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		lt, ok := hc.pass.TypesInfo.Types[as.Lhs[i]]
		if !ok {
			continue
		}
		if hc.boxes(lt.Type, as.Rhs[i]) {
			hc.pass.Reportf(as.Rhs[i].Pos(), "assignment boxes a concrete value into an interface on the hot path")
		}
	}
}

func (hc *hotChecker) returns(ret *ast.ReturnStmt, sig *types.Signature) {
	if sig == nil || sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, expr := range ret.Results {
		if hc.boxes(sig.Results().At(i).Type(), expr) {
			hc.pass.Reportf(expr.Pos(), "return boxes a concrete value into an interface on the hot path")
		}
	}
}

// boxes reports whether assigning expr to a destination of type dst
// converts a concrete value to an interface (an allocation for
// non-pointer-shaped values, a conversion record either way).
func (hc *hotChecker) boxes(dst types.Type, expr ast.Expr) bool {
	if dst == nil || !isIface(dst) {
		return false
	}
	tv, ok := hc.pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	if basic, ok := tv.Type.(*types.Basic); ok && basic.Kind() == types.UntypedNil {
		return false
	}
	return !isIface(tv.Type)
}

func isIface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// isNonConstString reports whether e is a string-typed expression not
// folded to a constant at compile time.
func (hc *hotChecker) isNonConstString(e ast.Expr) bool {
	tv, ok := hc.pass.TypesInfo.Types[e]
	if !ok || tv.Value != nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}
