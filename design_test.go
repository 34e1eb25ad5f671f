package transientbd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// designCode matches a backticked span in DESIGN.md; designName picks
// the function names inside one that the experiment index and inventory
// cite: experiments.X runners, BenchmarkX and TestX.
var (
	designCode = regexp.MustCompile("`([^`]+)`")
	designName = regexp.MustCompile(`\bexperiments\.(\w+)|\b((?:Benchmark|Test)\w+)`)
)

// TestDesignNamesDeclaredFuncs keeps DESIGN.md honest: every runner,
// benchmark and test it names must be a declared function, so a rename
// or deletion that strands a row fails here rather than misleading a
// reader.
func TestDesignNamesDeclaredFuncs(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	runners, tests := declaredFuncs(t)
	cited := 0
	for _, span := range designCode.FindAllStringSubmatch(string(doc), -1) {
		for _, m := range designName.FindAllStringSubmatch(span[1], -1) {
			cited++
			switch {
			case m[1] != "" && !runners[m[1]]:
				t.Errorf("DESIGN.md cites experiments.%s, which internal/experiments does not declare", m[1])
			case m[2] != "" && !tests[m[2]]:
				t.Errorf("DESIGN.md cites %s, which no _test.go file declares", m[2])
			}
		}
	}
	if cited == 0 {
		t.Fatal("DESIGN.md cites no runner, benchmark or test: the pattern no longer matches the document")
	}
}

// declaredFuncs returns the top-level functions of internal/experiments
// and the Benchmark/Test functions of every _test.go file in the tree.
func declaredFuncs(t *testing.T) (runners, tests map[string]bool) {
	t.Helper()
	runners, tests = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		isTest := strings.HasSuffix(path, "_test.go")
		inExperiments := filepath.Dir(path) == filepath.Join("internal", "experiments")
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			switch {
			case isTest:
				tests[fn.Name.Name] = true
			case inExperiments:
				runners[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return runners, tests
}
