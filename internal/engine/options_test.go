package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"xpointdb/internal/bgpool"
	"xpointdb/internal/cache"
	"xpointdb/internal/clock"
	"xpointdb/internal/storage"
	"xpointdb/internal/throttle"
	"xpointdb/internal/vfs"
)

// TestOptionsCarryNoSharedResource keeps the resources a Shared builds
// out of Options: a set of engines is an argument, not a knob, so no
// caller can hand an engine a cache, controller, pool or space
// budget of its own choosing.
func TestOptionsCarryNoSharedResource(t *testing.T) {
	shared := map[reflect.Type]bool{
		reflect.TypeOf((*cache.Cache)(nil)):         true,
		reflect.TypeOf((*throttle.Controller)(nil)): true,
		reflect.TypeOf((*bgpool.Pool)(nil)):         true,
		reflect.TypeOf((*SpaceManager)(nil)):        true,
	}
	ot := reflect.TypeOf(Options{})
	for i := 0; i < ot.NumField(); i++ {
		if f := ot.Field(i); shared[f.Type] {
			t.Errorf("Options.%s has type %v: shared resources are built by NewShared", f.Name, f.Type)
		}
	}
}

func TestOpenRequiresFS(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without FS succeeded")
	}
}

func TestWithDefaultsFillsZeroFields(t *testing.T) {
	fs := vfs.NewMem(storage.New(clock.Real{}, storage.Null()))
	o := Options{FS: fs}.withDefaults()
	if o.Clock == nil {
		t.Fatal("Clock not defaulted")
	}
	if o.MemtableSize <= 0 || o.L0CompactionTrigger <= 0 || o.L0SlowdownTrigger <= 0 || o.L0StopTrigger <= 0 {
		t.Fatalf("LSM sizing not defaulted: %+v", o)
	}
	if o.TargetFileSize != o.MemtableSize {
		t.Fatalf("TargetFileSize default should track MemtableSize: %d vs %d", o.TargetFileSize, o.MemtableSize)
	}
	if o.BaseLevelBytes != 4*o.MemtableSize {
		t.Fatalf("BaseLevelBytes default = %d", o.BaseLevelBytes)
	}
}

func TestDefaultsMatchRocksDBTriggers(t *testing.T) {
	fs := vfs.NewMem(storage.New(clock.Real{}, storage.Null()))
	d := DefaultOptions(fs)
	// The paper's reference configuration.
	if d.L0CompactionTrigger != 4 || d.L0SlowdownTrigger != 20 || d.L0StopTrigger != 36 {
		t.Fatalf("L0 triggers = %d/%d/%d, want RocksDB's 4/20/36",
			d.L0CompactionTrigger, d.L0SlowdownTrigger, d.L0StopTrigger)
	}
	if r := NewShared(d, 1, 0).Controller.Rate(); r != 16<<20 {
		t.Fatalf("delayed write rate = %f, want 16 MiB/s", r)
	}
	if d.SyncWAL {
		t.Fatal("SyncWAL must default false (db_bench/paper configuration)")
	}
	if !d.PipelinedWrites {
		t.Fatal("pipelined writes (Algorithm 2) should be the default")
	}
}

func TestOpenOnExistingEmptyDirIsFresh(t *testing.T) {
	fs := vfs.NewMem(storage.New(clock.Real{}, storage.Null()))
	db, err := Open(DefaultOptions(fs))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Second open recovers the (empty) database.
	db2, err := Open(DefaultOptions(fs))
	if err != nil {
		t.Fatalf("reopen empty db: %v", err)
	}
	defer db2.Close()
	if _, err := db2.Get([]byte("missing")); err != ErrNotFound {
		t.Fatalf("Get on empty reopened db: %v", err)
	}
}

// TestOptionsHaveCallers keeps every field of the two stores' Options
// (engine.Options, shardeddb.Options) earning its place, by two rules.
// First, a field must be set by some non-test Go outside the store's
// own package, examples/ and bench/ that imports the package — a
// store, a command, an experiment or the torture driver — or stand in
// the allow-list with its reason. A value nobody varies belongs in a
// constant, a mode only tests use belongs in no Options at all, and an
// assignment computed from another field of the same Options
// (o.X = o.Y / 2) is not a setting: the store derives it. Second, some
// _test.go outside bench/ must set it too: a knob no test turns has
// never been seen to work. A field counts as set by name — an
// assignment to a selector, a key of an Options literal of the package,
// or its address taken (a flag binding) — so a same-named field of
// another struct can hide a missing caller, never invent one.
func TestOptionsHaveCallers(t *testing.T) {
	t.Run("engine.Options", func(t *testing.T) {
		// The root package aliases the engine's Options.
		checkOptionCallers(t, "internal/engine", []string{"xpointdb/internal/engine", "xpointdb"}, map[string]string{
			"BlockCacheSize": "sizes a resource: a deployment setting with the default every run uses",
		})
	})
	t.Run("shardeddb.Options", func(t *testing.T) {
		checkOptionCallers(t, "internal/shardeddb", []string{"xpointdb/internal/shardeddb"}, nil)
	})
}

// checkOptionCallers is TestOptionsHaveCallers for the Options struct
// of the package in dir (relative to the repository root), reached by
// the import paths imports. allowed exempts fields from the first rule
// only.
func checkOptionCallers(t *testing.T, dir string, imports []string, allowed map[string]string) {
	const root = "../.."
	fset := token.NewFileSet()
	fields := map[string]bool{}
	pkgs, err := parser.ParseDir(fset, filepath.Join(root, dir), func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		ast.Inspect(pkg, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "Options" {
				for _, f := range ts.Type.(*ast.StructType).Fields.List {
					for _, name := range f.Names {
						fields[name.Name] = true
					}
				}
			}
			return true
		})
	}
	if len(fields) == 0 {
		t.Fatalf("no Options struct in %s", dir)
	}
	// set holds the fields non-test callers set, tested the fields
	// some test sets.
	set, tested := map[string]bool{}, map[string]bool{}
	// derived reports whether rhs reads another field of the Options
	// value the assignment writes to.
	derived := func(lhs *ast.SelectorExpr, rhs ast.Expr) bool {
		owner, found := types.ExprString(lhs.X), false
		ast.Inspect(rhs, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && fields[sel.Sel.Name] && types.ExprString(sel.X) == owner {
				found = true
			}
			return !found
		})
		return found
	}

	scanned := 0
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "bench" || d.Name() == "testdata" || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		// The package's own tests set its Options unqualified.
		isTest, inPkg := strings.HasSuffix(p, "_test.go"), path.Dir(rel) == dir
		if !isTest && (inPkg || strings.HasPrefix(rel, "examples/")) {
			return nil
		}
		into := set
		if isTest {
			into = tested
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		scanned++
		// Only a file importing the package (or in it) can hold an
		// Options value to set.
		optionsPkg := map[string]bool{}
		for _, spec := range f.Imports {
			ip, _ := strconv.Unquote(spec.Path.Value)
			name := path.Base(ip)
			if spec.Name != nil {
				name = spec.Name.Name
			}
			if slices.Contains(imports, ip) {
				optionsPkg[name] = true
			}
		}
		if len(optionsPkg) == 0 && !inPkg {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, l := range n.Lhs {
					sel, ok := l.(*ast.SelectorExpr)
					if !ok || !fields[sel.Sel.Name] {
						continue
					}
					rhs := n.Rhs[0]
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					}
					if !derived(sel, rhs) {
						into[sel.Sel.Name] = true
					}
				}
			case *ast.UnaryExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND && fields[sel.Sel.Name] {
					into[sel.Sel.Name] = true
				}
			case *ast.CompositeLit:
				switch typ := n.Type.(type) {
				case *ast.SelectorExpr:
					if pkg, ok := typ.X.(*ast.Ident); !ok || !optionsPkg[pkg.Name] || typ.Sel.Name != "Options" {
						return true
					}
				case *ast.Ident:
					if !inPkg || typ.Name != "Options" {
						return true
					}
				default:
					return true
				}
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok {
							into[k.Name] = true
						}
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
	for name := range fields {
		_, ok := allowed[name]
		switch {
		case !set[name] && !ok:
			t.Errorf("Options.%s: no caller outside %s, examples/ and bench/ sets it; make it a constant, derive it, or delete the mode", name, dir)
		case set[name] && ok:
			t.Errorf("Options.%s is set by a caller now: drop it from the allow-list", name)
		}
		if !tested[name] {
			t.Errorf("Options.%s: no _test.go outside bench/ sets it; test the knob or delete it", name)
		}
	}
	for name := range allowed {
		if !fields[name] {
			t.Errorf("allow-list names Options.%s, which does not exist", name)
		}
	}
}

// TestBlockSizeSetsDataBlocks checks that Options.BlockSize reaches the
// table builder: a cold Get caches the one data block it read, about
// BlockSize bytes of it.
func TestBlockSizeSetsDataBlocks(t *testing.T) {
	cachedByGet := func(blockSize int) int64 {
		db, _ := newTestDB(t, func(o *Options) { o.BlockSize = blockSize })
		defer db.Close()
		for i := 0; i < 500; i++ {
			if err := db.Put(testKey(i), testValue(i)); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		blocks := db.Shared().Blocks
		before := blocks.Used()
		if _, err := db.Get(testKey(250)); err != nil {
			t.Fatalf("Get: %v", err)
		}
		return blocks.Used() - before
	}
	small, large := cachedByGet(256), cachedByGet(8192)
	t.Logf("one cold Get cached %d B at BlockSize 256, %d B at 8192", small, large)
	if small < 256 || small > 1024 || large < 8192 || large > 10240 {
		t.Fatalf("one cold Get cached %d B at BlockSize 256 and %d B at 8192; want about one block each", small, large)
	}
}
