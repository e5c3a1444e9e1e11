package lint

import (
	"go/ast"
	"go/types"
)

// RegistryComplete keeps the op table and the function library honest.
// Every exported op constructor in internal/ops (first parameter
// *graph.Graph, second a name string) must be named in the build of
// some registerOp call, or carry an explicit suppression explaining why
// it has no IR spelling (composite convenience constructors). Every
// exported function returning a MapFn, AccumFn or FlatMapFn must be one
// return of a registry constructor (a package variable set by
// registerFn), so no library function is a bare closure or edits a
// registered one. Without this, a new op or function works through the
// Go API but silently cannot round-trip through the IR, and nothing
// fails until a user's program does.
var RegistryComplete = &Analyzer{
	Name:      "registrycomplete",
	Doc:       "every exported op constructor must be called from a registerOp build, and every library function must resolve through the function registry",
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
				pass.Reportf(fn.Pos(), "register its kind with registerOp in ir.go, building the node with "+fn.Name.Name+", or suppress with the reason it has no IR spelling",
					"exported op constructor %s has no op-table entry", fn.Name.Name)
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

// collectRegisteredConstructors marks the package-level functions named
// inside a registerOp call (its build calls the kind's constructor) as
// covered.
func collectRegisteredConstructors(pass *Pass, file *ast.File, covered map[string]bool) {
	info := pass.TypesInfo()
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || calleeIdent(call) != "registerOp" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if fn, ok := info.Uses[id].(*types.Func); ok && fn.Pkg() == pass.TypesPkg() {
						covered[fn.Name()] = true
					}
				}
				return true
			})
		}
		return true
	})
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
