package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// simPackages are the import-path suffixes of packages whose code can
// affect simulation results. Everything the determinism matrix certifies
// dynamically flows through these.
var simPackages = []string{
	"internal/des",
	"internal/graph",
	"internal/ops",
	"internal/element",
	"internal/scenario",
	"internal/workloads",
	"internal/hbm",
	"internal/onchip",
	"internal/tile",
	"internal/shape",
	"internal/symbolic",
}

func isSimPackage(path string) bool {
	for _, s := range simPackages {
		if pathHasSuffix(path, s) {
			return true
		}
	}
	return false
}

// Determinism flags the ways nondeterminism has historically crept into
// simulators: wall clocks, global rand, Go's randomized map iteration
// order leaking into ordered output or first-error selection, and
// package-level state that makes a result depend on what the process
// ran before.
var Determinism = &Analyzer{
	Name:      "determinism",
	Doc:       "sim-affecting packages must not read wall clocks, use unseeded math/rand, leak map iteration order, or write package-level variables outside init",
	AppliesTo: isSimPackage,
	Run:       runDeterminism,
}

func runDeterminism(pass *Pass) {
	info := pass.TypesInfo()
	for _, file := range pass.Files() {
		checkGlobalWrites(pass, file)
		sorted := collectSortedSlices(file, info)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkForbiddenCall(pass, n)
			case *ast.RangeStmt:
				if isMapType(info.TypeOf(n.X)) {
					checkMapRange(pass, n, info, sorted)
				}
			}
			return true
		})
	}
}

// checkForbiddenCall flags wall-clock reads and unseeded math/rand.
func checkForbiddenCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.TypesInfo(), call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(), "derive times from the simulated clock, or suppress if the value never reaches sim state",
				"time.%s in a sim-affecting package", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		// Constructing an explicitly seeded generator is fine; the
		// package-level functions draw from a process-global source.
		switch fn.Name() {
		case "New", "NewSource", "NewPCG", "NewChaCha8", "NewZipf":
			return
		}
		if fn.Type().(*types.Signature).Recv() != nil {
			return // method on an explicitly constructed *rand.Rand
		}
		pass.Reportf(call.Pos(), "construct a seeded rand.New(rand.NewSource(seed)) instead",
			"unseeded math/rand.%s in a sim-affecting package", fn.Name())
	}
}

// checkGlobalWrites flags writes to package-level variables in function
// bodies other than init; var initializers are not function bodies. A
// write is an assignment or ++/-- whose target is rooted at the variable
// (x = …, x.f = …, x[k] = …), a delete or clear of it, or a call of a
// pointer-receiver method on it (x.Add, x.Store, x.Lock, pool.Get). A
// variable whose declaration carries //lint:allow determinism <reason>
// may be written anywhere: that one line documents every write.
func checkGlobalWrites(pass *Pass, file *ast.File) {
	info := pass.TypesInfo()
	report := func(target ast.Expr) {
		v := rootVar(info, target)
		if v == nil || v.Parent() == nil || v.Parent() != v.Pkg().Scope() {
			return
		}
		if pass.Pkg.suppressed(pass.Analyzer.Name, pass.Fset().Position(v.Pos())) {
			return
		}
		pass.Reportf(target.Pos(), "own the state in a value the caller passes, or document the variable with //lint:allow on its declaration",
			"writes package-level variable %s outside init; results then depend on what the process ran before", v.Name())
	}
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || (fd.Recv == nil && fd.Name.Name == "init") {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						report(lhs)
					}
				}
			case *ast.IncDecStmt:
				report(n.X)
			case *ast.CallExpr:
				if (isBuiltin(info, n.Fun, "delete") || isBuiltin(info, n.Fun, "clear")) && len(n.Args) > 0 {
					report(n.Args[0])
				}
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && hasPointerReceiver(info, sel) {
					report(sel.X)
				}
			}
			return true
		})
	}
}

// rootVar returns the variable an lvalue-like expression is rooted at
// (x in x.f[k].g or *x), or nil. A qualified identifier pkg.X roots at X.
func rootVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, _ := info.Uses[x].(*types.Var)
			return v
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, ok := info.Uses[id].(*types.PkgName); ok {
					e = x.Sel
					continue
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// hasPointerReceiver reports whether sel is a method call selector whose
// method takes a pointer receiver.
func hasPointerReceiver(info *types.Info, sel *ast.SelectorExpr) bool {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return false
	}
	_, ptr := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
	return ptr
}

// calleeFunc resolves a call's callee to its types.Func, if it is one.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch callee := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[callee].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[callee.Sel].(*types.Func)
		return fn
	}
	return nil
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// sortedSlice records a slice variable that is passed to a sort call,
// keyed by its object, valued by the position of the sort call.
type sortedSlices map[types.Object][]token.Pos

// collectSortedSlices finds every sort.Strings/sort.Slice/slices.Sort-
// style call in the file and records which variable it sorts. The
// canonical deterministic-map-range idiom — append only the keys, sort
// them, then index the map in sorted order — is recognized through this
// table.
func collectSortedSlices(file *ast.File, info *types.Info) sortedSlices {
	out := sortedSlices{}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		switch fn.Name() {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "SortFunc", "SortStableFunc", "Stable":
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					out[obj] = append(out[obj], call.Pos())
				}
			}
		}
		return true
	})
	return out
}

// checkMapRange flags map-range bodies whose effects depend on iteration
// order: early returns, appends to ordered output, string building, and
// table-row emission. The one allowed shape is collecting only the keys
// into a slice that is subsequently sorted.
func checkMapRange(pass *Pass, rng *ast.RangeStmt, info *types.Info, sorted sortedSlices) {
	if _, ok := ast.Unparen(rng.X).(*ast.CompositeLit); ok {
		pass.Reportf(rng.Pos(), "iterate a fixed slice of {key, value} pairs instead",
			"ranges over a map literal; iteration order is randomized")
		return
	}
	keyObj := rangeKeyObject(rng, info)
	outer := func(id *ast.Ident) types.Object {
		obj := info.ObjectOf(id)
		if obj == nil || !obj.Pos().IsValid() || obj.Pos() >= rng.Pos() {
			return nil
		}
		return obj
	}
	var report func(pos token.Pos, fix, format string, args ...any)
	report = pass.Reportf
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // runs later, in whatever order the caller decides
		case *ast.ReturnStmt:
			report(n.Pos(), "sort the keys and iterate them, so the first error is stable",
				"returns from inside a map range; which iteration returns depends on map order")
		case *ast.AssignStmt:
			checkMapRangeAssign(report, n, info, rng, keyObj, outer, sorted)
		case *ast.CallExpr:
			checkMapRangeCall(report, n, info, outer)
		}
		return true
	})
}

// rangeKeyObject returns the object of the range key variable (k in
// `for k, v := range m`), or nil.
func rangeKeyObject(rng *ast.RangeStmt, info *types.Info) types.Object {
	id, ok := rng.Key.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

func checkMapRangeAssign(report func(pos token.Pos, fix, format string, args ...any),
	n *ast.AssignStmt, info *types.Info, rng *ast.RangeStmt,
	keyObj types.Object, outer func(*ast.Ident) types.Object, sorted sortedSlices) {
	// x = append(x, ...) onto a slice declared outside the range.
	if n.Tok == token.ASSIGN && len(n.Lhs) == 1 && len(n.Rhs) == 1 {
		if call, ok := n.Rhs[0].(*ast.CallExpr); ok && isBuiltin(info, call.Fun, "append") {
			id, ok := n.Lhs[0].(*ast.Ident)
			if !ok {
				return
			}
			obj := outer(id)
			if obj == nil {
				return
			}
			if appendsOnlyKey(call, info, keyObj) && sortedAfter(sorted[obj], rng.End()) {
				return // the sorted-keys idiom
			}
			report(n.Pos(), "append only the keys, sort them, then index the map in key order",
				"appends to %s inside a map range; element order follows map order", id.Name)
			return
		}
	}
	// s += ... on an outer string.
	if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
		id, ok := n.Lhs[0].(*ast.Ident)
		if !ok {
			return
		}
		obj := outer(id)
		if obj == nil {
			return
		}
		if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
			report(n.Pos(), "sort the keys first, then build the string in key order",
				"builds string %s inside a map range; content order follows map order", id.Name)
		}
	}
}

func checkMapRangeCall(report func(pos token.Pos, fix, format string, args ...any),
	call *ast.CallExpr, info *types.Info, outer func(*ast.Ident) types.Object) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if ok {
		recv, isIdent := ast.Unparen(sel.X).(*ast.Ident)
		switch sel.Sel.Name {
		case "WriteString", "WriteByte", "WriteRune", "Write":
			if isIdent && outer(recv) != nil {
				report(call.Pos(), "sort the keys first, then write in key order",
					"writes to %s inside a map range; output order follows map order", recv.Name)
			}
		case "AddRow":
			report(call.Pos(), "sort the keys first, then emit rows in key order",
				"emits a table row inside a map range; row order follows map order")
		}
		return
	}
	// fmt.Fprintf(&buf, ...) style writes to an outer builder.
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Fprintf", "Fprint", "Fprintln":
			report(call.Pos(), "sort the keys first, then print in key order",
				"prints to a writer inside a map range; output order follows map order")
		}
	}
}

// appendsOnlyKey reports whether the append call appends exactly the
// range key variable and nothing else.
func appendsOnlyKey(call *ast.CallExpr, info *types.Info, keyObj types.Object) bool {
	if keyObj == nil || len(call.Args) != 2 || call.Ellipsis.IsValid() {
		return false
	}
	id, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
	return ok && info.ObjectOf(id) == keyObj
}

// sortedAfter reports whether any of the sort-call positions lies after
// the range statement ends.
func sortedAfter(poss []token.Pos, end token.Pos) bool {
	for _, p := range poss {
		if p > end {
			return true
		}
	}
	return false
}

// isBuiltin reports whether the expression names the given builtin.
func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}
