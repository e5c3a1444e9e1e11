package ops

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestOperatorsKeepNoRunState pins the invariant that lets one Program
// run concurrently without a lock: operators are immutable
// configuration. It parses the package's non-test files and fails when
// any method of an operator type (a type with a Run(*graph.Ctx) error
// method) assigns to, increments, or indexes-and-assigns a field of its
// receiver, nested function literals included. Per-run state belongs in
// Run's locals, and per-run output goes to the run through Ctx.Record.
func TestOperatorsKeepNoRunState(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var methods []*ast.FuncDecl
	operators := map[string]bool{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			methods = append(methods, fd)
			if fd.Name.Name == "Run" && isCtxRun(fd.Type) {
				operators[recvType(fd)] = true
			}
		}
	}
	if len(operators) < 20 {
		t.Fatalf("found only %d operator types; the scan no longer recognizes Run(*graph.Ctx) error", len(operators))
	}
	var offenders []string
	for _, fd := range methods {
		names := fd.Recv.List[0].Names
		if !operators[recvType(fd)] || len(names) == 0 || fd.Body == nil {
			continue
		}
		recv := names[0].Name
		report := func(lhs ast.Expr) {
			if field := receiverField(lhs, recv); field != "" {
				offenders = append(offenders, recvType(fd)+"."+field+" (in "+fd.Name.Name+", "+fset.Position(lhs.Pos()).String()+")")
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					report(lhs)
				}
			case *ast.IncDecStmt:
				report(s.X)
			}
			return true
		})
	}
	sort.Strings(offenders)
	for _, o := range offenders {
		t.Errorf("operator method writes its receiver's field %s; keep per-run state in Run's locals or publish it with ctx.Record", o)
	}
}

// isCtxRun reports whether a method type is func(*graph.Ctx) error.
func isCtxRun(ft *ast.FuncType) bool {
	if ft.Params == nil || len(ft.Params.List) != 1 || ft.Results == nil || len(ft.Results.List) != 1 {
		return false
	}
	star, ok := ft.Params.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Ctx" {
		return false
	}
	res, ok := ft.Results.List[0].Type.(*ast.Ident)
	return ok && res.Name == "error"
}

// recvType names a method's receiver type without its pointer.
func recvType(fd *ast.FuncDecl) string {
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// receiverField returns the receiver field an assignment target writes
// (recv.f, recv.f.g, recv.f[i], *recv.f), or "" when it writes none.
func receiverField(e ast.Expr, recv string) string {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && id.Name == recv {
				return x.Sel.Name
			}
			e = x.X
		default:
			return ""
		}
	}
}
