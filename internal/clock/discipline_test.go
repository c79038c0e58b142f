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
// a simulated clock cannot see: a go statement, a sync.WaitGroup, a
// sync.Cond, a channel send, receive or select, or a call to time.Now,
// time.Sleep or time.AfterFunc. The simulation kernel runs one process
// at a time, so a process blocked on any of these keeps the run token
// and the whole simulation hangs with it. Code that runs under a Clock
// starts processes with Clock.Go, waits for them on clock-made Conds
// (Parallel) and reads time from its Clock. The allow-list is the code
// that implements the clocks or runs outside them: clock and sim
// themselves, and obs (the HTTP server and the hub's sink drain run on
// real time). sync.Mutex and sync.RWMutex are allowed as leaf locks,
// held only across code that never blocks on the clock: under the
// kernel their holder then runs to its Unlock before another process
// runs, so they never contend there, and they keep the host hot paths
// (cache, histograms, vfs) free of a clock Mutex's interface dispatch
// on the real clock.
func TestProcessDiscipline(t *testing.T) {
	allowed := map[string]bool{"clock": true, "sim": true, "obs": true}
	forbidden := map[string]string{
		"sync.WaitGroup": "wait with Parallel or a clock-made Cond",
		"sync.Cond":      "use a clock-made Cond",
		"sync.NewCond":   "use Clock.NewCond",
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
			case *ast.SendStmt:
				t.Errorf("%s: channel send; hand off through a clock-made Cond", fset.Position(n.Pos()))
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					t.Errorf("%s: channel receive; wait on a clock-made Cond", fset.Position(n.Pos()))
				}
			case *ast.SelectStmt:
				t.Errorf("%s: select; wait on a clock-made Cond", fset.Position(n.Pos()))
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
