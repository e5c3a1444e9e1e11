package lint

import (
	"go/ast"
	"go/types"
)

// RegistryComplete keeps the op decode registry and the function
// library honest. Every exported op constructor in internal/ops (first
// parameter *graph.Graph, second a name string) must be reachable from
// an IR decoder registered via RegisterIROp, or carry an explicit
// suppression explaining why it has no IR spelling (composite
// convenience constructors). Every exported function returning a
// MapFn, AccumFn or FlatMapFn must be one return of a registry
// constructor (a package variable set by registerFn), so no library
// function is a bare closure or edits a registered one. Without this, a
// new op or function works through the Go API but silently cannot
// round-trip through the IR, and nothing fails until a user's program
// does.
var RegistryComplete = &Analyzer{
	Name:      "registrycomplete",
	Doc:       "every exported op constructor must be called from a registered IR decoder, and every library function must resolve through the function registry",
	AppliesTo: func(path string) bool { return pathHasSuffix(path, "internal/ops") },
	Run:       runRegistryComplete,
}

func runRegistryComplete(pass *Pass) {
	covered := map[string]bool{}
	for _, file := range pass.Files() {
		collectRegisteredConstructors(pass, file, covered)
	}
	registered := registeredFns(pass)
	for _, file := range pass.Files() {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() {
				continue
			}
			obj, ok := pass.TypesInfo().Defs[fn.Name].(*types.Func)
			if ok && returnsLibFn(obj) && !returnsRegistered(pass, fn.Body, registered) {
				pass.Reportf(fn.Pos(), "return a constructor made by registerFn, adding the function to the registry",
					"exported library function %s does not resolve through the function registry", fn.Name.Name)
			}
			if !ok || !isOpConstructor(obj) {
				continue
			}
			if !covered[fn.Name.Name] {
				pass.Reportf(fn.Pos(), "register a decoder in ir.go calling "+fn.Name.Name+", or suppress with the reason it has no IR spelling",
					"exported op constructor %s has no decode-registry entry", fn.Name.Name)
			}
		}
	}
}

// isOpConstructor reports whether the function takes (*<...>.Graph,
// string, ...) — the shape every op constructor in internal/ops shares.
func isOpConstructor(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	params := sig.Params()
	if params.Len() < 2 {
		return false
	}
	ptr, ok := params.At(0).Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Name() != "Graph" {
		return false
	}
	b, ok := params.At(1).Type().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// collectRegisteredConstructors finds every RegisterIROp call (direct,
// through a selector, or through a local alias like
// `reg := graph.RegisterIROp`) and marks the package-level functions
// called inside the registered decoder as covered.
func collectRegisteredConstructors(pass *Pass, file *ast.File, covered map[string]bool) {
	info := pass.TypesInfo()
	// First pass: objects aliasing RegisterIROp.
	aliases := map[types.Object]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != len(asg.Rhs) {
			return true
		}
		for i, rhs := range asg.Rhs {
			if !namesRegisterIROp(rhs) {
				continue
			}
			if id, ok := asg.Lhs[i].(*ast.Ident); ok {
				if obj := info.ObjectOf(id); obj != nil {
					aliases[obj] = true
				}
			}
		}
		return true
	})
	// Second pass: registration calls; mark constructors called in the
	// decoder argument.
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		isReg := namesRegisterIROp(call.Fun)
		if !isReg {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				isReg = aliases[info.ObjectOf(id)]
			}
		}
		if !isReg {
			return true
		}
		ast.Inspect(call.Args[1], func(m ast.Node) bool {
			inner, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := ast.Unparen(inner.Fun).(*ast.Ident); ok {
				if fn, ok := info.Uses[id].(*types.Func); ok && fn.Pkg() == pass.TypesPkg() {
					covered[fn.Name()] = true
				}
			}
			return true
		})
		return true
	})
}

// namesRegisterIROp reports whether the expression is an identifier or
// selector literally named RegisterIROp.
func namesRegisterIROp(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name == "RegisterIROp"
	case *ast.SelectorExpr:
		return e.Sel.Name == "RegisterIROp"
	}
	return false
}

// returnsLibFn reports whether fn returns exactly one MapFn, AccumFn or
// FlatMapFn.
func returnsLibFn(fn *types.Func) bool {
	res := fn.Type().(*types.Signature).Results()
	if res.Len() != 1 {
		return false
	}
	if named, ok := res.At(0).Type().(*types.Named); ok {
		switch named.Obj().Name() {
		case "MapFn", "AccumFn", "FlatMapFn":
			return true
		}
	}
	return false
}

// registeredFns returns the package-level variables initialized by a
// registerFn call: the function registry's constructors.
func registeredFns(pass *Pass) map[types.Object]bool {
	registered := map[types.Object]bool{}
	for _, in := range pass.TypesInfo().InitOrder {
		if call, ok := in.Rhs.(*ast.CallExpr); ok && len(in.Lhs) == 1 && calleeIdent(call) == "registerFn" {
			registered[in.Lhs[0]] = true
		}
	}
	return registered
}

// calleeIdent returns the name of a call's callee identifier, looking
// through parentheses and type arguments; "" for other callees.
func calleeIdent(call *ast.CallExpr) string {
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ix.X
	} else if ix, ok := fun.(*ast.IndexListExpr); ok {
		fun = ix.X
	}
	if id, ok := fun.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// returnsRegistered reports whether body is exactly one return of a call
// to a registry constructor.
func returnsRegistered(pass *Pass, body *ast.BlockStmt, registered map[types.Object]bool) bool {
	if body == nil || len(body.List) != 1 {
		return false
	}
	ret, ok := body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && registered[pass.TypesInfo().Uses[id]]
}
