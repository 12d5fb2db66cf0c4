package share_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreachedExports lists the exported functions and methods under internal/
// that no non-test file references, each with the reason it stays. Test
// helpers that another package's tests call must live in a non-test file,
// because a _test.go file cannot export to another package.
var unreachedExports = map[string]string{
	"internal/core.(*Game).AlternativeLoss":   "solve's TestStage3GameNilLossMatchesSellerProfit builds a loss-form Stage-3 game with it",
	"internal/core.(*Game).CubicLoss":         "solve's TestGeneralWarmChainConsistent gives the general backend a non-quadratic loss with it",
	"internal/core.(*Game).FirstOrder":        "the root integration test checks the first-order conditions with it",
	"internal/experiments.(*Series).ArgMaxX":  "the root integration test reads figure optima with it",
	"internal/market.Load":                    "the root integration test round-trips Market.Save through it",
	"internal/wal.Scan":                       "pool tests read a closed log's records with it",
	"internal/httpapi.(*statusWriter).Unwrap": "http.ResponseController reaches the wrapped writer through it",
	"internal/pool.(*BatchError).Unwrap":      "errors.Is and errors.As call it",
	"internal/pool.(*OverloadError).Unwrap":   "errors.Is and errors.As call it",
}

// TestNoUnreachedExports fails for every exported function or method
// declared under internal/ that no non-test Go file in the tree names
// outside its own declaration, sharebench/ included, unless
// unreachedExports lists it. A function counts as named by a selector on
// its package or by a bare identifier in its own directory; a method by any
// selector of its name. Names are matched without type information, so a
// name shared with a live field or method counts as referenced and the
// check can miss dead code. The live code it flags is a method that only
// the standard library calls, through an interface; the allowlist names
// those.
func TestNoUnreachedExports(t *testing.T) {
	type decl struct {
		key, name, dir string
		method         bool
		start, end     token.Pos
	}
	type ref struct{ scope, name string }
	fset := token.NewFileSet()
	var decls []decl
	// refs holds every position that names a declaration: a bare identifier
	// is keyed by its own directory, a selector on an imported package by
	// that package's directory, and any other selector by "." (a method or
	// field, whatever its receiver).
	refs := map[ref][]token.Pos{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := map[string]string{}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = strings.TrimPrefix(p, "share/")
		}
		sels := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sels[n.Sel] = true
				scope := "."
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					scope = imports[x.Name]
				}
				refs[ref{scope, n.Sel.Name}] = append(refs[ref{scope, n.Sel.Name}], n.Sel.Pos())
			case *ast.Ident:
				if !sels[n] {
					refs[ref{dir, n.Name}] = append(refs[ref{dir, n.Name}], n.Pos())
				}
			}
			return true
		})
		if !strings.HasPrefix(dir, "internal/") {
			return nil
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			key := dir + "." + fd.Name.Name
			method := fd.Recv != nil
			if method {
				key = dir + ".(" + recvString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
			}
			decls = append(decls, decl{key, fd.Name.Name, dir, method, fd.Pos(), fd.End()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var dead []string
	allowed := map[string]bool{}
	for _, d := range decls {
		scope := d.dir
		if d.method {
			scope = "."
		}
		referenced := false
		for _, p := range refs[ref{scope, d.name}] {
			if p < d.start || p >= d.end {
				referenced = true
				break
			}
		}
		if referenced {
			continue
		}
		if _, ok := unreachedExports[d.key]; ok {
			allowed[d.key] = true
			continue
		}
		lines := fset.Position(d.end).Line - fset.Position(d.start).Line + 1
		dead = append(dead, d.key+" ("+fset.Position(d.start).String()+", "+strconv.Itoa(lines)+" lines)")
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but named by no non-test file: %s", d)
	}
	for key := range unreachedExports {
		if !allowed[key] {
			t.Errorf("unreachedExports lists %s, which is now referenced or gone: drop the entry", key)
		}
	}
}

func recvString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "*" + recvString(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return recvString(e.X)
	case *ast.IndexListExpr:
		return recvString(e.X)
	}
	return "?"
}
