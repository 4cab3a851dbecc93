package detournet

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowlist names the declarations that only tests reach and
// that stay anyway, each with its reason. A key is the package's path
// relative to the module root, then the name (Type.Method for a
// method); a bare package path covers the whole package.
var testOnlyAllowlist = map[string]string{
	"goldentest": "test infrastructure by design: the golden-file harness every golden test imports",

	"internal/bgppol.Policy.ValleyFree":             "reference oracle the bgppol and scenario route tests compare paths against",
	"internal/fluid.Link.Load":                      "xtraffic's lazy-versus-eager tests read a link's synced cross-traffic load",
	"internal/fluid.Network.CancelFlow":             "tcpmodel's and xtraffic's tests cancel flows mid-transfer",
	"internal/fluid.Network.Remaining":              "xtraffic's tests read a flow's settled remaining bytes",
	"internal/fluid.Network.SortedFlowLabels":       "core's and transport's tests check which flows are live",
	"internal/measure.Upload":                       "zero value of measure.Direction",
	"internal/replay.Telemetry":                     "the telemetry overhead guard in sched's tests drains the storm through it",
	"internal/scenario.WithPolicyRouting":           "the static Gao-Rexford world that scenario's and bgppol's policy tests route over",
	"internal/sched.BudgetError.Is":                 "errors.Is target",
	"internal/sched.ErrRetryBudget":                 "the sentinel BudgetError.Is matches",
	"internal/sched.JobSingle":                      "zero value of sched.JobMode",
	"internal/sched.QuotaError.Is":                  "errors.Is target",
	"internal/sched.ShedError.Is":                   "errors.Is target",
	"internal/sched.taggedError.Is":                 "errors.Is target",
	"internal/sched.taggedError.Unwrap":             "errors.Unwrap target",
	"internal/simclock.Engine.Advance":              "the hand-driven test clock of fluid, tcpmodel and xtraffic tests",
	"internal/simproc.Runner.Run":                   "the deadlock-checking run loop: simproc's, transport's, httpsim's and oauthsim's tests and BenchmarkProcSwitch drain a closed simulation with it and fail on a parked process",
	"internal/simclock.Engine.Pending":              "the settle point tests use to read an allocation between events",
	"internal/tcpmodel.Params.EstimateTransferTime": "the slow-start transfer-time model kept for size-aware route prediction, still undecided",
	"internal/tcpmodel.Params.MaxRate":              "the rate cap EstimateTransferTime applies",
	"internal/topology.Edge.Down":                   "faults' tests read an edge's admin state after a scripted flap",
	"internal/topology.Graph.MustNode":              "node lookup for the bgppol and topology route tests",
}

// TestNoTestOnlyExports fails on an exported name, or an unexported
// top-level function, that only tests keep alive, and on an allowlist
// entry that production code now reaches or that is gone.
func TestNoTestOnlyExports(t *testing.T) {
	if raceEnabled {
		t.Skip("the scan checks source, not concurrency")
	}
	res, err := scanTestOnly(".", []string{"cmd", "examples"})
	if err != nil {
		t.Fatal(err)
	}
	unlisted, stale := res.against(testOnlyAllowlist)
	for _, k := range unlisted {
		t.Errorf("%s (%s) is reached only from tests: delete it, move it into the package's export_test.go, or allowlist it with a reason", k, res.pos[k])
	}
	for _, k := range stale {
		t.Errorf("allowlist entry %s is stale: non-test code reaches it now, or it is gone", k)
	}
	t.Logf("%d test-only names over %d non-test lines", len(res.lines), res.totalLines())
}

// TestScanFindsPlantedExport runs the scan over a tiny module holding
// a test-only export with an unexported helper behind it, a method
// reached only through an interface, and a method of a used type that
// implements no interface and only a test calls.
func TestScanFindsPlantedExport(t *testing.T) {
	if raceEnabled {
		t.Skip("the scan checks source, not concurrency")
	}
	src := filepath.Join("testdata", "scanmod")
	allow := map[string]string{
		"lib.Planted": "kept for the self-test",
		"lib.helper":  "kept for the self-test",
		"lib.Stale":   "names nothing",
	}
	res, err := scanTestOnly(src, []string{"cmd"})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.keys(), " "); got != "lib.Planted lib.Tally.Area lib.helper" {
		t.Fatalf("reported %q, want the planted export, its helper and Tally.Area", got)
	}
	if unlisted, stale := res.against(allow); strings.Join(unlisted, " ") != "lib.Tally.Area" || strings.Join(stale, " ") != "lib.Stale" {
		t.Fatalf("unlisted %v, stale %v; want [lib.Tally.Area] and [lib.Stale]", unlisted, stale)
	}

	// Once a non-test file references the export, neither it nor its
	// helper is test-only, and both allowlist entries go stale.
	dir := t.TempDir()
	err = filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		to := filepath.Join(dir, strings.TrimPrefix(p, src))
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	use := "package main\n\nimport \"scanmod/lib\"\n\nfunc planted() int { return lib.Planted() }\n"
	if err := os.WriteFile(filepath.Join(dir, "cmd", "app", "planted.go"), []byte(use), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err = scanTestOnly(dir, []string{"cmd"})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.keys(), " "); got != "lib.Tally.Area" {
		t.Fatalf("reported %q after a non-test reference, want only Tally.Area", got)
	}
	if _, stale := res.against(allow); len(stale) != 3 {
		t.Fatalf("stale %v, want all three entries", stale)
	}
}

// scanResult maps each test-only declaration's key to its non-test
// line count (doc comment included) and its position.
type scanResult struct {
	lines map[string]int
	pos   map[string]string
}

func (r scanResult) keys() []string {
	var ks []string
	for k := range r.lines {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func (r scanResult) totalLines() int {
	n := 0
	for _, l := range r.lines {
		n += l
	}
	return n
}

// against splits the result by allow: the reported keys no entry
// covers, and the entries that cover no reported key.
func (r scanResult) against(allow map[string]string) (unlisted, stale []string) {
	used := map[string]bool{}
	for _, k := range r.keys() {
		entry := k
		if _, ok := allow[k]; !ok {
			entry, _, _ = strings.Cut(k, ".")
			if _, ok := allow[entry]; !ok {
				unlisted = append(unlisted, k)
				continue
			}
		}
		used[entry] = true
	}
	for k := range allow {
		if !used[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	return unlisted, stale
}

// scanTestOnly type-checks every package of the module at root, and of
// every module nested under it, through one importer, so objects
// compare by identity. Live code starts from the roots: every
// declaration in rootDirs and in the nested modules, and init
// functions. A
// reference counts only from a declaration that is itself live,
// iterated to a fixpoint, and a method through which a type implements
// an interface the module declares or uses (any String or Error method
// included) is live once that type is. What the scan reports is every
// other exported name, exported method and unexported top-level
// function outside the roots.
func scanTestOnly(root string, rootDirs []string) (scanResult, error) {
	s := &scanner{
		fset:  token.NewFileSet(),
		std:   importer.Default(),
		pkgs:  map[string]*scanPkg{},
		edges: map[types.Object][]types.Object{},
	}
	if err := s.walk(root, "", rootDirs); err != nil {
		return scanResult{}, err
	}
	var paths []string
	for p := range s.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := s.Import(p); err != nil {
			return scanResult{}, err
		}
	}
	for _, p := range paths {
		s.graph(s.pkgs[p])
	}
	impls := map[types.Object][]types.Object{}
	for _, p := range paths {
		scope := s.pkgs[p].types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				impls[tn] = s.implsOf(tn)
			}
		}
	}
	live := map[types.Object]bool{}
	for len(s.seed) > 0 {
		obj := s.seed[len(s.seed)-1]
		s.seed = s.seed[:len(s.seed)-1]
		if live[obj] {
			continue
		}
		live[obj] = true
		s.seed = append(s.seed, s.edges[obj]...)
		if _, ok := obj.(*types.TypeName); ok {
			s.seed = append(s.seed, impls[obj]...)
		} else if tn := s.namedIn(obj.Type()); tn != nil {
			s.seed = append(s.seed, tn)
		}
	}
	res := scanResult{lines: map[string]int{}, pos: map[string]string{}}
	for _, c := range s.cands {
		if !live[c.obj] {
			res.lines[c.key] += c.lines
			res.pos[c.key] = c.pos
		}
	}
	return res, nil
}

type scanner struct {
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*scanPkg
	edges  map[types.Object][]types.Object // declaration -> what it references
	ifaces []*types.Interface              // every interface the module declares or uses
	seed   []types.Object
	cands  []scanCand
}

type scanPkg struct {
	path, dir, rel string
	root           bool     // every declaration is a root
	files          []string // non-test files
	syntax         []*ast.File
	types          *types.Package
	info           *types.Info
}

type scanCand struct {
	obj   types.Object
	key   string
	lines int
	pos   string
}

// walk registers the module at dir and its packages; a nested module
// found below it is registered as a root module.
func (s *scanner) walk(dir, rel string, rootDirs []string) error {
	mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return err
	}
	modPath := ""
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	if modPath == "" {
		return fmt.Errorf("%s: no module line", filepath.Join(dir, "go.mod"))
	}
	nested := rel != ""
	return filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		sub, _ := filepath.Rel(dir, p)
		sub = filepath.ToSlash(sub)
		if name := d.Name(); sub != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if sub != "." {
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				if err := s.walk(p, path.Join(rel, sub), nil); err != nil {
					return err
				}
				return filepath.SkipDir
			}
		}
		bp, err := build.Default.ImportDir(p, 0)
		if err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		pkg := &scanPkg{path: modPath, dir: p, rel: path.Join(rel, sub), files: bp.GoFiles, root: nested}
		if sub != "." {
			pkg.path += "/" + sub
		}
		for _, r := range rootDirs {
			if sub == r || strings.HasPrefix(sub, r+"/") {
				pkg.root = true
			}
		}
		if len(pkg.files) > 0 {
			s.pkgs[pkg.path] = pkg
		}
		return nil
	})
}

// Import type-checks a module package from source, once, and hands
// every other path to the standard importer.
func (s *scanner) Import(p string) (*types.Package, error) {
	pkg, ok := s.pkgs[p]
	if !ok {
		return s.std.Import(p)
	}
	if pkg.types != nil {
		return pkg.types, nil
	}
	for _, name := range pkg.files {
		f, err := parser.ParseFile(s.fset, filepath.Join(pkg.dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.syntax = append(pkg.syntax, f)
	}
	pkg.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	tp, err := (&types.Config{Importer: s}).Check(p, s.fset, pkg.syntax, pkg.info)
	if err != nil {
		return nil, fmt.Errorf("scan: %s: %w", p, err)
	}
	pkg.types = tp
	return tp, nil
}

// graph records each top-level declaration's references, seeds the
// roots, collects the interfaces and lists the candidates.
func (s *scanner) graph(pkg *scanPkg) {
	for _, tv := range pkg.info.Types {
		s.addIface(tv.Type)
	}
	for _, obj := range pkg.info.Uses {
		if f, ok := obj.(*types.Func); ok {
			sig := f.Type().(*types.Signature)
			for i := 0; i < sig.Params().Len(); i++ {
				s.addIface(sig.Params().At(i).Type())
			}
		}
	}
	root := pkg.root
	for _, f := range pkg.syntax {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj := pkg.info.Defs[d.Name]
				refs := s.refs(pkg, d)
				if root || (d.Recv == nil && d.Name.Name == "init") {
					s.seed = append(s.seed, refs...)
					continue
				}
				s.edges[obj] = refs
				if d.Recv == nil || d.Name.IsExported() {
					s.cand(pkg, obj, d.Doc, d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					doc := d.Doc
					if d.Lparen.IsValid() {
						doc = nil
					}
					var ids []*ast.Ident
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						ids = []*ast.Ident{sp.Name}
						if sp.Doc != nil {
							doc = sp.Doc
						}
					case *ast.ValueSpec:
						ids = sp.Names
						if sp.Doc != nil {
							doc = sp.Doc
						}
					default:
						continue
					}
					refs := s.refs(pkg, spec)
					for _, id := range ids {
						obj := pkg.info.Defs[id]
						if root {
							s.seed = append(s.seed, refs...)
							if obj != nil {
								s.seed = append(s.seed, obj)
							}
							continue
						}
						if obj == nil || id.Name == "_" {
							continue
						}
						s.edges[obj] = refs
						if id.IsExported() {
							s.cand(pkg, obj, doc, spec)
						}
					}
				}
			}
		}
	}
}

func (s *scanner) addIface(t types.Type) {
	if t == nil {
		return
	}
	if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !slices.Contains(s.ifaces, it) {
		s.ifaces = append(s.ifaces, it)
	}
}

// implsOf lists the methods, promoted ones included, through which tn
// satisfies an interface the module declares or uses, and its String
// and Error methods: fmt and errors find those through any. They are
// live once tn is, since a call through an interface names no method
// object. A generic type matches an interface by method names alone.
func (s *scanner) implsOf(tn *types.TypeName) []types.Object {
	named, ok := tn.Type().(*types.Named)
	if !ok || tn.IsAlias() {
		return nil
	}
	if _, ok := named.Underlying().(*types.Interface); ok {
		return nil
	}
	ptr := types.NewPointer(named)
	var out []types.Object
	add := func(name string, pkg *types.Package) {
		if f, ok := s.methodOf(ptr, name, pkg); ok {
			out = append(out, f)
		}
	}
	add("String", nil)
	add("Error", nil)
	for _, it := range s.ifaces {
		if named.TypeParams().Len() > 0 {
			all := true
			for i := 0; i < it.NumMethods(); i++ {
				_, ok := s.methodOf(ptr, it.Method(i).Name(), it.Method(i).Pkg())
				all = all && ok
			}
			if !all {
				continue
			}
		} else if !types.Implements(ptr, it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			add(it.Method(i).Name(), it.Method(i).Pkg())
		}
	}
	return out
}

// methodOf finds the method name in t's method set, promoted methods
// included, as declared.
func (s *scanner) methodOf(t types.Type, name string, pkg *types.Package) (types.Object, bool) {
	obj, _, _ := types.LookupFieldOrMethod(t, true, pkg, name)
	f, ok := obj.(*types.Func)
	if !ok {
		return nil, false
	}
	return f.Origin(), true
}

// refs lists the module objects that node references by name, and the
// types of the fields it embeds.
func (s *scanner) refs(pkg *scanPkg, node ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.info.Uses[id]
		if v, ok := pkg.info.Defs[id].(*types.Var); ok && v.Embedded() {
			obj = s.namedIn(v.Type())
		}
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if obj != nil && obj.Pkg() != nil && s.pkgs[obj.Pkg().Path()] != nil {
			out = append(out, obj)
		}
		return true
	})
	return out
}

// namedIn returns the module type name behind t, through one pointer.
func (s *scanner) namedIn(t types.Type) types.Object {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || s.pkgs[n.Obj().Pkg().Path()] == nil {
		return nil
	}
	return n.Origin().Obj()
}

func (s *scanner) cand(pkg *scanPkg, obj types.Object, doc *ast.CommentGroup, node ast.Node) {
	key := obj.Name()
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			if tn := s.namedIn(recv.Type()); tn != nil {
				key = tn.Name() + "." + key
			}
		}
	}
	start := node.Pos()
	if doc != nil {
		start = doc.Pos()
	}
	pos := s.fset.Position(obj.Pos())
	s.cands = append(s.cands, scanCand{
		obj:   obj,
		key:   pkg.rel + "." + key,
		lines: s.fset.Position(node.End()).Line - s.fset.Position(start).Line + 1,
		pos:   fmt.Sprintf("%s:%d", path.Join(pkg.rel, filepath.Base(pos.Filename)), pos.Line),
	})
}
