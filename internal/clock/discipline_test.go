package clock

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestProcessDiscipline scans the non-test Go under internal/ for what
// a simulated clock cannot see: a go statement, a sync.WaitGroup, or a
// call to time.Now, time.Sleep or time.AfterFunc. Code that runs under
// a Clock starts processes with Clock.Go, waits for them on clock-made
// Conds (Parallel) and reads time from its Clock. The allow-list is
// the code that implements the clocks or runs outside them: clock and
// sim themselves, obs (the HTTP server and the hub's sink drain run on
// real time) and torture, until it runs on the kernel. sync.Mutex is
// not checked: whether it becomes a kernel-aware lock is the kernel's
// decision.
func TestProcessDiscipline(t *testing.T) {
	allowed := map[string]bool{"clock": true, "sim": true, "obs": true, "torture": true}
	forbidden := map[string]string{
		"sync.WaitGroup": "wait with Parallel or a clock-made Cond",
		"time.Now":       "read the Clock",
		"time.Sleep":     "sleep on the Clock",
		"time.AfterFunc": "start a Clock.Go process that sleeps on the Clock",
	}
	const root = ".." // internal/
	fset := token.NewFileSet()
	scanned := 0
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || (filepath.Dir(p) == root && allowed[d.Name()]) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		scanned++
		// The import path behind each package name the file uses.
		imports := map[string]string{}
		for _, spec := range f.Imports {
			ip, _ := strconv.Unquote(spec.Path.Value)
			name := path.Base(ip)
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = ip
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: go statement; start the process with Clock.Go", fset.Position(n.Pos()))
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok {
					name := imports[pkg.Name] + "." + n.Sel.Name
					if fix, bad := forbidden[name]; bad {
						t.Errorf("%s: %s; %s", fset.Position(n.Pos()), name, fix)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned < 50 {
		t.Fatalf("scanned only %d files under %s", scanned, root)
	}
}
