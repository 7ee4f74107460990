package racesim

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// mapRangeAllowed lists every function of the simulated machine's packages
// that may range over a map, with the reason its iteration order cannot
// reach a Result.
var mapRangeAllowed = map[string]string{
	"cache.pageSet.reset": "every chunk is zeroed and pushed on a stack of identical spares, so order is unobservable",
}

// TestNoMapRangeInSimulatedMachine: Go randomizes map iteration order, so a
// range over a map anywhere in the timing models makes a simulation depend
// on the run it happens in (the bug class PR 17 fixed by hand). No non-test
// file of the packages that hold simulated state may contain one, outside
// the allowlist above — which must itself stay exact.
func TestNoMapRangeInSimulatedMachine(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	found := map[string]string{}
	for _, pkg := range []string{"cache", "prefetch", "branch", "core", "dram"} {
		dir := filepath.Join("internal", pkg)
		parsed, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(parsed) != 1 {
			t.Fatalf("%s: %d packages, want 1", dir, len(parsed))
		}
		var files []*ast.File
		for _, p := range parsed {
			for _, f := range p.Files {
				files = append(files, f)
			}
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
		if _, err := (&types.Config{Importer: imp}).Check("racesim/"+dir, fset, files, info); err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				name := pkg + ".(package scope)"
				if fn, ok := decl.(*ast.FuncDecl); ok {
					name = pkg + "." + funcName(fn)
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if rs, ok := n.(*ast.RangeStmt); ok {
						if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); isMap {
							found[name] = fset.Position(rs.Pos()).String()
						}
					}
					return true
				})
			}
		}
	}
	for name, pos := range found {
		if _, ok := mapRangeAllowed[name]; !ok {
			t.Errorf("%s: %s ranges over a map; iterate a slice or sorted keys instead (or allowlist it with the reason its order is unobservable)", pos, name)
		}
	}
	for name := range mapRangeAllowed {
		if _, ok := found[name]; !ok {
			t.Errorf("allowlisted %s no longer ranges over a map; remove it from mapRangeAllowed", name)
		}
	}
}

// funcName is Recv.Name for a method (pointer receivers and type
// parameters stripped) and Name for a function.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	for {
		switch r := recv.(type) {
		case *ast.StarExpr:
			recv = r.X
			continue
		case *ast.IndexExpr:
			recv = r.X
			continue
		case *ast.Ident:
			return r.Name + "." + fn.Name.Name
		}
		return fn.Name.Name
	}
}
