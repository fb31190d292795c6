package codesize

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// The unused-exports check. An exported package-level identifier, or an
// exported method of an exported type, declared in an internal/ package
// and referenced by no non-test file of the module (cmd/, examples/,
// bench/ and the root package included) is dead code or a test seam.
//
// It matches names with go/parser and go/ast alone, so it is
// conservative: it may miss dead code, but it never flags used code.
//   - A package-level name is used when another package selects it
//     through an import (pkg.Name), or a file of its own package names
//     it bare.
//   - A method is used when any non-test file selects its name (x.Name),
//     or when its type has every method of an interface that contains
//     it: one declared in the module's non-test code, or one of the
//     stdlib protocols below (errors.Is calls Is, io.Copy calls Read).
//   - An identifier named in the signature, the exported fields, the
//     type or the value of a used identifier is used: a caller of New
//     holds a *T without ever writing T.

// stdlibIfaces are the stdlib interfaces, by method names, that an
// exported method may satisfy without module code calling it by name.
var stdlibIfaces = [][]string{
	{"Error"}, {"String"}, {"GoString"}, {"Format"}, {"Is"}, {"As"}, {"Unwrap"},
	{"Read"}, {"Write"}, {"Close"}, {"WriteTo"}, {"ReadFrom"},
	{"Len", "Less", "Swap"}, {"MarshalJSON"}, {"UnmarshalJSON"}, {"ServeHTTP"},
	{"Error", "Timeout", "Temporary"}, {"String", "Set"},
	{"Read", "Write", "Close", "LocalAddr", "RemoteAddr", "SetDeadline", "SetReadDeadline", "SetWriteDeadline"},
}

// export is one exported identifier of an internal/ package.
type export struct {
	pkg    string // directory relative to the module root: "internal/sim"
	name   string // "Name", or "Type.Method"
	recv   string // receiver type of a method, else ""
	method string // method name, else ""
	file   string // declaring file relative to the module root
	lines  int    // lines of its declaration, doc comment included
	decl   []ast.Node
	in     *srcFile
}

func (e *export) String() string { return e.pkg + "." + e.name }

// srcFile is one parsed Go file and the names it references.
type srcFile struct {
	dir     string // relative to the module root
	test    bool
	f       *ast.File
	imports map[string]string          // local name → module directory
	bare    map[string]bool            // identifiers not selected through anything
	sel     map[string]bool            // x.Name where x is not an import
	qual    map[string]map[string]bool // module directory → names selected through its import
	ifaces  [][]string                 // method names of each interface type written here
}

// unusedReport is what the check found over one module.
type unusedReport struct {
	unused   []*export          // referenced by no non-test file
	testUse  map[*export]string // which tests reference each unused export
	internal int                // used only by non-test files of their own package
}

// findUnused parses every .go file under root (a directory holding
// go.mod), skipping testdata and hidden directories, and checks the
// exports of the packages under root/internal.
func findUnused(root string) (*unusedReport, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, l := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(l, "module "); ok {
			modPath = strings.TrimSpace(rest)
		}
	}
	fset := token.NewFileSet()
	var files []*srcFile
	pkgName := map[string]string{} // directory → package name
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		sf := &srcFile{dir: filepath.ToSlash(rel), test: strings.HasSuffix(name, "_test.go"), f: f}
		if !sf.test {
			pkgName[sf.dir] = f.Name.Name
		}
		files = append(files, sf)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, sf := range files {
		sf.scan(modPath, pkgName)
	}

	// Every candidate, and the method names of every type.
	var exports []*export
	methods := map[string][]string{} // "dir.Type" → method names
	for _, sf := range files {
		if sf.test || !strings.HasPrefix(sf.dir, "internal/") {
			continue
		}
		add := func(name, recv string, doc *ast.CommentGroup, node ast.Node, parts ...ast.Node) {
			if !ast.IsExported(name) || recv != "" && !ast.IsExported(recv) {
				return
			}
			e := &export{pkg: sf.dir, name: name, recv: recv, decl: parts, in: sf}
			if recv != "" {
				e.method, e.name = name, recv+"."+name
			}
			start := node.Pos()
			if doc != nil {
				start = doc.Pos()
			}
			p, end := fset.Position(start), fset.Position(node.End())
			rel, _ := filepath.Rel(root, p.Filename)
			e.file, e.lines = filepath.ToSlash(rel), end.Line-p.Line+1
			exports = append(exports, e)
		}
		for _, d := range sf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil {
					recv = recvName(d.Recv.List[0].Type)
					methods[sf.dir+"."+recv] = append(methods[sf.dir+"."+recv], d.Name.Name)
				}
				add(d.Name.Name, recv, d.Doc, d, d.Type)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					// A grouped spec counts from its own doc comment.
					doc, node := d.Doc, ast.Node(d)
					if d.Lparen.IsValid() {
						doc, node = nil, s
					}
					switch s := s.(type) {
					case *ast.TypeSpec:
						if node == s {
							doc = s.Doc
						}
						add(s.Name.Name, "", doc, node, s.Type)
					case *ast.ValueSpec:
						if node == s {
							doc = s.Doc
						}
						var parts []ast.Node
						if s.Type != nil {
							parts = append(parts, s.Type)
						}
						for _, v := range s.Values {
							parts = append(parts, v)
						}
						for _, n := range s.Names {
							add(n.Name, "", doc, node, parts...)
						}
					}
				}
			}
		}
	}
	byName := map[string]*export{}
	for _, e := range exports {
		if e.recv == "" {
			byName[e.pkg+"."+e.name] = e
		}
	}

	ifaces := slices.Clone(stdlibIfaces)
	for _, sf := range files {
		if !sf.test {
			ifaces = append(ifaces, sf.ifaces...)
		}
	}
	satisfies := func(e *export) bool {
		have := methods[e.pkg+"."+e.recv]
		for _, iface := range ifaces {
			if slices.Contains(iface, e.method) &&
				!slices.ContainsFunc(iface, func(m string) bool { return !slices.Contains(have, m) }) {
				return true
			}
		}
		return false
	}
	// refs reports whether any file that keep accepts names e.
	refs := func(e *export, keep func(*srcFile) bool) bool {
		for _, sf := range files {
			switch {
			case !keep(sf):
			case e.recv != "":
				if sf.sel[e.method] {
					return true
				}
			case sf.dir == e.pkg && sf.bare[e.name], sf.qual[e.pkg][e.name]:
				return true
			}
		}
		return false
	}
	// reach closes a used set over the identifiers its members name.
	reach := func(used map[*export]bool) {
		var work []*export
		for e := range used {
			work = append(work, e)
		}
		for len(work) > 0 {
			e := work[len(work)-1]
			work = work[:len(work)-1]
			mark := func(to *export) {
				if to != nil && !used[to] {
					used[to] = true
					work = append(work, to)
				}
			}
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.StructType:
					// An unexported field does not make its type reachable.
					for _, f := range n.Fields.List {
						if len(f.Names) == 0 || slices.ContainsFunc(f.Names, (*ast.Ident).IsExported) {
							ast.Inspect(f.Type, visit)
						}
					}
					return false
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if dir, ok := e.in.imports[x.Name]; ok {
							mark(byName[dir+"."+n.Sel.Name])
							return false
						}
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					mark(byName[e.pkg+"."+n.Name])
				}
				return true
			}
			for _, part := range e.decl {
				ast.Inspect(part, visit)
			}
		}
	}

	used, external := map[*export]bool{}, map[*export]bool{}
	for _, e := range exports {
		iface := e.recv != "" && satisfies(e)
		used[e] = iface || refs(e, func(sf *srcFile) bool { return !sf.test })
		external[e] = iface || refs(e, func(sf *srcFile) bool { return !sf.test && sf.dir != e.pkg })
	}
	for _, m := range []map[*export]bool{used, external} {
		for e, ok := range m {
			if !ok {
				delete(m, e)
			}
		}
		reach(m)
	}

	rep := &unusedReport{testUse: map[*export]string{}}
	for _, e := range exports {
		switch {
		case !used[e]:
			rep.unused = append(rep.unused, e)
			switch {
			case refs(e, func(sf *srcFile) bool { return sf.test && sf.dir == e.pkg }):
				rep.testUse[e] = "own tests"
			case refs(e, func(sf *srcFile) bool { return sf.test }):
				rep.testUse[e] = "other tests"
			default:
				rep.testUse[e] = "no reference"
			}
		case !external[e]:
			rep.internal++
		}
	}
	return rep, nil
}

// recvName is the type name of a method receiver: T, *T, T[K] or *T[K].
func recvName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.ParenExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// scan records the names the file references. Declared names (of
// functions, methods, types, values and fields) are not references.
func (sf *srcFile) scan(modPath string, pkgName map[string]string) {
	sf.imports = map[string]string{}
	for _, imp := range sf.f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		dir, ok := strings.CutPrefix(path, modPath+"/")
		if !ok {
			continue
		}
		name := pkgName[dir]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		sf.imports[name] = dir
	}
	sf.bare, sf.sel, sf.qual = map[string]bool{}, map[string]bool{}, map[string]map[string]bool{}
	var walk func(ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ImportSpec:
			return false
		case *ast.FuncDecl:
			if n.Recv != nil {
				ast.Inspect(n.Recv, walk)
			}
			ast.Inspect(n.Type, walk)
			if n.Body != nil {
				ast.Inspect(n.Body, walk)
			}
			return false
		case *ast.TypeSpec:
			if n.TypeParams != nil {
				ast.Inspect(n.TypeParams, walk)
			}
			ast.Inspect(n.Type, walk)
			return false
		case *ast.ValueSpec:
			if n.Type != nil {
				ast.Inspect(n.Type, walk)
			}
			for _, v := range n.Values {
				ast.Inspect(v, walk)
			}
			return false
		case *ast.Field:
			if n.Type != nil {
				ast.Inspect(n.Type, walk)
			}
			return false
		case *ast.InterfaceType:
			var names []string
			for _, m := range n.Methods.List {
				for _, id := range m.Names {
					names = append(names, id.Name)
				}
			}
			if len(names) > 0 {
				sf.ifaces = append(sf.ifaces, names)
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if dir, ok := sf.imports[x.Name]; ok {
					if sf.qual[dir] == nil {
						sf.qual[dir] = map[string]bool{}
					}
					sf.qual[dir][n.Sel.Name] = true
					return false
				}
			}
			sf.sel[n.Sel.Name] = true
			ast.Inspect(n.X, walk)
			return false
		case *ast.Ident:
			sf.bare[n.Name] = true
		}
		return true
	}
	for _, d := range sf.f.Decls {
		ast.Inspect(d, walk)
	}
}

// allowed are the exports the check may find. Each names one
// identifier ("internal/pkg.Name"), one receiver type (all of its
// methods) or one file, and says why it stays.
var allowed = []struct{ name, reason string }{
	{"internal/cost/table1.go", "Table 1's per-layer totals: the root TestTable1_Regenerate and the T1 tests compare meter readings against them"},
	{"internal/mbuf.FromBytesSplit", "T1: the root Table 1 rig sets the chain lengths the per-mbuf charges depend on"},
	{"internal/testbed/carriers.go", "X2 and E6, IP carriers beside the native stack: reached only from the root BenchmarkX2_CarrierChoice, BenchmarkE6_EncapVsUDP and their tests"},
	{"internal/memnet.LinkHandle.SetLoss", "X2's lossy access link, set by the root BenchmarkX2_CarrierChoice and its tests"},
	{"internal/signaling.PendingConnection", "§8 library verbs: the non-blocking open's Await and Cancel"},
	{"internal/signaling.ServiceRequest.Reject", "§8 library verb: a server declines a call"},
	{"internal/sim.Rand.Intn", "the seeded source the randomized tests of six packages draw their schedules from"},
}

// allows returns the index of the allowlist entry covering e, or -1.
func allows(e *export) int {
	return slices.IndexFunc(allowed, func(a struct{ name, reason string }) bool {
		return a.name == e.String() || a.name == e.file || e.recv != "" && a.name == e.pkg+"."+e.recv
	})
}

func TestNoUnusedExports(t *testing.T) {
	start := time.Now()
	root, err := RepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := findUnused(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(allowed) > 10 {
		t.Errorf("allowlist has %d entries, want at most 10", len(allowed))
	}
	hit := make([]int, len(allowed))
	lines := 0
	for _, e := range rep.unused {
		if i := allows(e); i >= 0 {
			hit[i]++
			t.Logf("%s (%s, %d lines; %s): allowed by %s", e, e.file, e.lines, rep.testUse[e], allowed[i].name)
			continue
		}
		lines += e.lines
		t.Errorf("%s (%s, %d lines): no non-test file references it (%s)", e, e.file, e.lines, rep.testUse[e])
	}
	if lines > 0 {
		t.Logf("%d lines: delete them, move them into an export_test.go, or allowlist them with a reason", lines)
	}
	for i, a := range allowed {
		t.Logf("allowed %-44s %2d finding(s): %s", a.name, hit[i], a.reason)
		if hit[i] == 0 {
			t.Errorf("allowlist entry %s covers nothing: remove it", a.name)
		}
	}
	t.Logf("%d exported identifiers are used only inside their own package (not gated)", rep.internal)
	t.Logf("checked in %v", time.Since(start).Round(time.Millisecond))
}

// The fixture module holds one export of each class the check tells
// apart; exactly the unreferenced one and the test-only one are unused.
func TestUnusedExportsFixture(t *testing.T) {
	rep, err := findUnused(filepath.Join("testdata", "unused"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range rep.unused {
		got = append(got, fmt.Sprintf("%s: %s", e, rep.testUse[e]))
	}
	want := []string{
		"internal/lib.Dead: no reference",
		"internal/lib.TestOnly: own tests",
	}
	if !slices.Equal(got, want) {
		t.Errorf("unused = %q, want %q", got, want)
	}
	if rep.internal != 1 {
		t.Errorf("package-internal = %d, want 1 (lib.Internal)", rep.internal)
	}
}
