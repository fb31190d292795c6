package codesize

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
	"unicode"
)

// The reachability check. It type-checks the module with go/types
// (standard library only: the module's packages from source, the
// standard library from the export data `go list -export` names) and
// walks from the roots, following what every identifier in reached code
// resolves to. A function, method, constant, variable or type declared
// in internal/, cmd/ or examples/ that the walk never reaches is dead
// code or a test seam. bench/ is read for its roots but not gated.
//
// The roots are what runs: main and every init, every package-level var
// initializer, and the Test, Benchmark, Example and Fuzz functions of
// the root package's tests (the paper's experiments). Every other
// package's test files, in-package and external, are type-checked too,
// as use sites only: what they name is not reached through them, but a
// name another package's tests use is no candidate to unexport.
//
// A method is reached when
//   - reached code selects it (x.M, T.M), or
//   - its receiver type appears in reached code and a reached call goes
//     through an interface method of the same name that the type
//     implements, or
//   - its receiver type appears in reached code and the method belongs
//     to one of the standard-library protocols below, which stdlib code
//     calls on the module's values (errors.Is calls Is, fmt calls
//     String).
//
// The constants of an iota block are reached together: deleting one
// would renumber the rest. A name used in a file the host build
// excludes (a build-constraint fallback) counts as reached.
//
// The check also reports each unexported struct field of internal/,
// cmd/ or examples/ that no non-test code of the module reads, reached
// or not. A field is read by a selector, by a positional literal of its
// struct (which names every field), or by being an embedded field on the
// path of a promoted selector. A selector that is the target of a plain
// assignment (x.f = v) and a key of a composite literal only write the
// field; x.f++, x.f += v and &x.f read it. A field with a struct tag is
// exempt: reflection reads it.

// stdlibIfaces are the stdlib interfaces, by method names, whose
// methods stdlib code calls without the module calling them by name.
var stdlibIfaces = [][]string{
	{"Error"}, {"String"}, {"GoString"}, {"Format"}, {"Is"}, {"As"}, {"Unwrap"},
	{"Read"}, {"Write"}, {"Close"}, {"WriteTo"}, {"ReadFrom"},
	{"Len", "Less", "Swap"}, {"MarshalJSON"}, {"UnmarshalJSON"}, {"ServeHTTP"},
	{"Error", "Timeout", "Temporary"}, {"String", "Set"},
	{"Read", "Write", "Close", "LocalAddr", "RemoteAddr", "SetDeadline", "SetReadDeadline", "SetWriteDeadline"},
}

// finding is one declaration the walk did not reach.
type finding struct {
	pkg   string // directory relative to the module root: "internal/sim"
	name  string // "Name", or "Type.Method"
	recv  string // receiver type of a method, else ""
	file  string // declaring file relative to the module root
	lines int    // lines of its declaration, doc comment included
}

func (f *finding) String() string { return f.pkg + "." + f.name }

// listed is what `go list -json` says of one package.
type listed struct {
	ImportPath, Dir, Export   string
	Standard                  bool
	GoFiles, IgnoredGoFiles   []string
	TestGoFiles, XTestGoFiles []string
	Deps                      []string
}

// pkg is one type-checked package of the module.
type pkg struct {
	dir   string // relative to the module root
	info  *types.Info
	files []*ast.File
}

// decl is one package-level declaration or method of the module.
type decl struct {
	pkg   *pkg
	node  ast.Node       // what reaching it walks
	block []types.Object // the iota block it belongs to
	file  string
	lines int
}

// reachReport is what the check found over one module.
type reachReport struct {
	unreached []*finding
	// fields lists the unexported struct fields no code reads, each as
	// "Type.field" (or "field" in an anonymous struct) at its line, of
	// the nFields checked.
	fields  []*finding
	nFields int
	// ownOnly lists, by package, the reached exported identifiers that
	// only their own package's code names: candidates to unexport.
	ownOnly map[string][]string
}

// walker holds the reachability state of one module.
type walker struct {
	fset      *token.FileSet
	decls     map[types.Object]*decl
	reached   map[types.Object]bool
	foreign   map[types.Object]bool // named from another package, or called through an interface
	work      []types.Object
	named     []*types.TypeName       // reached named types of the module
	ifaces    map[string][]types.Type // method name → interfaces reached calls go through
	testUsed  map[string]bool         // by key, what another package's tests name
	fields    map[*types.Var]*finding // gated unexported fields without a tag
	fieldUsed map[*types.Var]bool     // fields some non-test code reads
}

// findUnreached loads the module at root (a directory holding go.mod)
// and returns what its roots do not reach.
func findUnreached(root string) (*reachReport, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	w := &walker{
		fset:      token.NewFileSet(),
		decls:     map[types.Object]*decl{},
		reached:   map[types.Object]bool{},
		foreign:   map[types.Object]bool{},
		ifaces:    map[string][]types.Type{},
		testUsed:  map[string]bool{},
		fields:    map[*types.Var]*finding{},
		fieldUsed: map[*types.Var]bool{},
	}
	// Test files import what ./... may not: list those too.
	patterns := []string{"./..."}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(w.fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			patterns = append(patterns, strings.Trim(imp.Path.Value, `"`))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	slices.Sort(patterns[1:])
	patterns = slices.Compact(patterns)
	// Run the toolchain that built this test: another go's export data
	// may be in a format this go/importer cannot read.
	goCmd := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goCmd); err != nil {
		goCmd = "go"
	}
	cmd := exec.Command(goCmd, append([]string{"list", "-e", "-deps", "-export", "-json"}, patterns...)...)
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	var all []*listed
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listed)
		if err := dec.Decode(p); err != nil {
			return nil, err
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
		} else {
			all = append(all, p)
		}
	}

	std := importer.ForCompiler(w.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if p, ok := checked[path]; ok {
				return p, nil
			}
			return std.Import(path)
		}),
		Sizes: types.SizesFor("gc", runtime.GOARCH),
	}
	parse := func(dir string, names []string) ([]*ast.File, error) {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(w.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		return files, nil
	}
	typecheck := func(dir, path string, names []string, imp types.Importer) (*pkg, *types.Package, error) {
		files, err := parse(dir, names)
		if err != nil {
			return nil, nil, err
		}
		rel, _ := filepath.Rel(root, dir)
		p := &pkg{dir: filepath.ToSlash(rel), files: files, info: &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Defs:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		c := conf
		c.Importer = imp
		tp, err := c.Check(path, w.fset, files, p.info)
		if err != nil {
			return nil, nil, fmt.Errorf("type-checking %s: %w", path, err)
		}
		return p, tp, nil
	}
	check := func(dir, path string, names []string) (*pkg, *types.Package, error) {
		p, tp, err := typecheck(dir, path, names, conf.Importer)
		if err != nil {
			return nil, nil, err
		}
		w.declare(root, p)
		w.fieldsOf(root, p)
		return p, tp, nil
	}

	// go list -deps prints each package after its dependencies, so a
	// package's roots can be walked as soon as it is checked.
	for _, l := range all {
		names := l.GoFiles
		if l.Dir == root {
			names = append(slices.Clone(names), l.TestGoFiles...)
		}
		if len(names) == 0 {
			continue
		}
		p, tp, err := check(l.Dir, l.ImportPath, names)
		if err != nil {
			return nil, err
		}
		checked[l.ImportPath] = tp
		w.roots(p, l.Dir == root)
		var ignored []string
		for _, name := range l.IgnoredGoFiles {
			if !strings.HasSuffix(name, "_test.go") {
				ignored = append(ignored, name)
			}
		}
		files, err := parse(l.Dir, ignored)
		if err != nil {
			return nil, err
		}
		w.elsewhere(tp, files)
	}
	// The root package's external tests may import any package.
	for _, l := range all {
		if l.Dir == root && len(l.XTestGoFiles) > 0 {
			p, _, err := check(l.Dir, l.ImportPath+"_test", l.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			w.roots(p, true)
		}
	}
	byPath := map[string]*listed{}
	for _, l := range all {
		byPath[l.ImportPath] = l
	}
	for _, l := range all {
		if l.Dir == root {
			continue // its tests are roots, walked above
		}
		under := checked[l.ImportPath] // what its external tests import
		if len(l.TestGoFiles) > 0 {
			p, tp, err := typecheck(l.Dir, l.ImportPath, append(slices.Clone(l.GoFiles), l.TestGoFiles...), conf.Importer)
			if err != nil {
				return nil, err
			}
			w.testUses(p, l.ImportPath)
			under = tp
		}
		if len(l.XTestGoFiles) == 0 || under == nil {
			continue
		}
		imp := conf.Importer
		if under != checked[l.ImportPath] {
			// As go test builds it, an external test sees its package
			// with the in-package test files, and so does every package
			// it imports that imports that package: check those again.
			variants := map[string]*types.Package{l.ImportPath: under}
			var recheck importerFunc
			recheck = func(path string) (*types.Package, error) {
				if tp, ok := variants[path]; ok {
					return tp, nil
				}
				q := byPath[path]
				if q == nil || !slices.Contains(q.Deps, l.ImportPath) {
					return conf.Importer.Import(path)
				}
				_, tp, err := typecheck(q.Dir, path, q.GoFiles, recheck)
				variants[path] = tp
				return tp, err
			}
			imp = recheck
		}
		p, _, err := typecheck(l.Dir, l.ImportPath+"_test", l.XTestGoFiles, imp)
		if err != nil {
			return nil, err
		}
		w.testUses(p, l.ImportPath)
	}
	w.run()
	return w.report(), nil
}

// testUses records what p's test files name from packages other than
// own, the package under test. It reaches nothing.
func (w *walker) testUses(p *pkg, own string) {
	for _, f := range p.files {
		if !strings.HasSuffix(w.fset.File(f.Pos()).Name(), "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				obj := p.info.Uses[id]
				_, method := obj.(*types.Func)
				if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() != own && (method || obj.Parent() == obj.Pkg().Scope()) {
					w.testUsed[key(obj)] = true
				}
			}
			return true
		})
	}
}

// key names a package-level object or method the same way in every
// type-check of its package: "path.Name" or "path.Type.Method".
func key(obj types.Object) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if r := fn.Origin().Type().(*types.Signature).Recv(); r != nil {
			if n, ok := deref(r.Type()).(*types.Named); ok {
				name = n.Obj().Name() + "." + name
			}
		}
	}
	return obj.Pkg().Path() + "." + name
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// declare records every package-level declaration and method of p.
func (w *walker) declare(root string, p *pkg) {
	add := func(obj types.Object, node ast.Node, doc *ast.CommentGroup, span ast.Node) {
		start := span.Pos()
		if doc != nil {
			start = doc.Pos()
		}
		from, to := w.fset.Position(start), w.fset.Position(span.End())
		rel, _ := filepath.Rel(root, from.Filename)
		w.decls[obj] = &decl{pkg: p, node: node, file: filepath.ToSlash(rel), lines: to.Line - from.Line + 1}
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			if d, ok := d.(*ast.FuncDecl); ok {
				add(p.info.Defs[d.Name], d, d.Doc, d)
				continue
			}
			d := d.(*ast.GenDecl)
			var block []types.Object
			usesIota := false
			for _, s := range d.Specs {
				// A grouped spec counts from its own doc comment.
				doc, span := d.Doc, ast.Node(d)
				switch s := s.(type) {
				case *ast.TypeSpec:
					if d.Lparen.IsValid() {
						doc, span = s.Doc, s
					}
					add(p.info.Defs[s.Name], s, doc, span)
				case *ast.ValueSpec:
					if d.Lparen.IsValid() {
						doc, span = s.Doc, s
					}
					usesIota = usesIota || d.Tok == token.CONST && len(s.Values) == 0
					for _, v := range s.Values {
						ast.Inspect(v, func(n ast.Node) bool {
							id, ok := n.(*ast.Ident)
							usesIota = usesIota || ok && p.info.Uses[id] == types.Universe.Lookup("iota")
							return true
						})
					}
					for _, id := range s.Names {
						if obj := p.info.Defs[id]; obj != nil && id.Name != "_" {
							add(obj, s, doc, span)
							block = append(block, obj)
						}
					}
				}
			}
			if usesIota {
				for _, obj := range block {
					w.decls[obj].block = block
				}
			}
		}
	}
}

// fieldsOf records the gated unexported fields p's non-test files
// declare without a tag, and the fields they read.
func (w *walker) fieldsOf(root string, p *pkg) {
	top, _, _ := strings.Cut(p.dir, "/")
	gated := top == "internal" || top == "cmd" || top == "examples"
	name := func(f *types.Var) { w.fieldUsed[f.Origin()] = true }
	for _, f := range p.files {
		if strings.HasSuffix(w.fset.File(f.Pos()).Name(), "_test.go") {
			continue
		}
		owner := map[*ast.StructType]string{} // a named struct's type name
		written := map[*ast.Ident]bool{}      // assignment targets and literal keys
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN {
					for _, lhs := range n.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
							written[sel.Sel] = true
						}
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					written[id] = true
				}
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					owner[st] = n.Name.Name
				}
			case *ast.StructType:
				if gated {
					w.declareFields(root, p, n, owner[n])
				}
			case *ast.Ident:
				if v, ok := p.info.Uses[n].(*types.Var); ok && v.IsField() && !written[n] {
					name(v)
				}
			case *ast.CompositeLit:
				if len(n.Elts) == 0 {
					break
				}
				if _, keyed := n.Elts[0].(*ast.KeyValueExpr); keyed {
					break
				}
				if st, ok := deref(p.info.TypeOf(n)).Underlying().(*types.Struct); ok {
					for i := range st.NumFields() {
						name(st.Field(i))
					}
				}
			case *ast.SelectorExpr:
				if sel := p.info.Selections[n]; sel != nil {
					t := sel.Recv()
					for _, i := range sel.Index()[:len(sel.Index())-1] {
						f := deref(t).Underlying().(*types.Struct).Field(i)
						name(f)
						t = f.Type()
					}
				}
			}
			return true
		})
	}
}

// declareFields records the unexported fields of st without a tag,
// named "owner.field", or "field" in an anonymous struct.
func (w *walker) declareFields(root string, p *pkg, st *ast.StructType, owner string) {
	for _, fl := range st.Fields.List {
		ids := fl.Names
		if len(ids) == 0 {
			ids = []*ast.Ident{embeddedName(fl.Type)}
		}
		for _, id := range ids {
			v, ok := p.info.Defs[id].(*types.Var)
			if fl.Tag != nil || !ok || v.Exported() || id.Name == "_" {
				continue
			}
			name := id.Name
			if owner != "" {
				name = owner + "." + name
			}
			pos := w.fset.Position(id.Pos())
			rel, _ := filepath.Rel(root, pos.Filename)
			w.fields[v] = &finding{pkg: p.dir, name: name, file: fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line), lines: 1}
		}
	}
}

// embeddedName is the identifier an embedded field's type expression
// names the field by.
func embeddedName(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// deref is what t points to, or t.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// roots walks what runs in p: main, every init, every package-level var
// initializer, and, when experiments is set, the Test, Benchmark,
// Example and Fuzz functions of p's test files.
func (w *walker) roots(p *pkg, experiments bool) {
	for _, f := range p.files {
		test := strings.HasSuffix(w.fset.File(f.Pos()).Name(), "_test.go")
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				main := name == "main" && f.Name.Name == "main"
				if d.Recv == nil && (name == "init" || main || experiments && test && isExperiment(name)) {
					w.walk(p, d)
				}
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					for _, s := range d.Specs {
						for _, v := range s.(*ast.ValueSpec).Values {
							w.walk(p, v)
						}
					}
				}
			}
		}
	}
}

// isExperiment reports whether go test runs a function of this name.
func isExperiment(name string) bool {
	for _, prefix := range []string{"Test", "Benchmark", "Example", "Fuzz"} {
		if rest, ok := strings.CutPrefix(name, prefix); ok && (rest == "" || !unicode.IsLower(rune(rest[0]))) {
			return true
		}
	}
	return false
}

// elsewhere reaches every declaration of tp that files, which the host
// build excludes, name.
func (w *walker) elsewhere(tp *types.Package, files []*ast.File) {
	names := map[string]bool{}
	for _, f := range files {
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				declared[d.Name] = true
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declared[s.Name] = true
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declared[id] = true
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				names[id.Name] = true
			}
			return true
		})
	}
	if len(names) == 0 {
		return
	}
	for obj := range w.decls {
		if obj.Pkg() == tp && names[obj.Name()] {
			w.mark(obj)
		}
	}
}

// walk reaches whatever an identifier in n resolves to.
func (w *walker) walk(p *pkg, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		switch obj := p.info.Uses[id].(type) {
		case *types.Func:
			recv := obj.Type().(*types.Signature).Recv()
			if recv != nil && types.IsInterface(recv.Type()) {
				if !slices.Contains(w.ifaces[obj.Name()], recv.Type()) {
					w.ifaces[obj.Name()] = append(w.ifaces[obj.Name()], recv.Type())
				}
				return true
			}
			w.use(p, obj.Origin())
		case *types.Var:
			if !obj.IsField() {
				w.use(p, obj)
			}
		case *types.Const, *types.TypeName:
			w.use(p, obj)
		}
		return true
	})
}

// use reaches obj from code of p.
func (w *walker) use(p *pkg, obj types.Object) {
	if d := w.decls[obj]; d != nil && d.pkg != p {
		w.foreign[obj] = true
	}
	w.mark(obj)
}

// mark reaches obj, and the rest of its iota block.
func (w *walker) mark(obj types.Object) {
	d := w.decls[obj]
	if d == nil || w.reached[obj] {
		return
	}
	for _, o := range append([]types.Object{obj}, d.block...) {
		if !w.reached[o] {
			w.reached[o] = true
			w.work = append(w.work, o)
			if tn, ok := o.(*types.TypeName); ok && !tn.IsAlias() {
				w.named = append(w.named, tn)
			}
		}
	}
}

// run walks until nothing new is reached: first the declarations marked
// so far, then the methods their types' interface calls and stdlib
// protocols reach.
func (w *walker) run() {
	for {
		for len(w.work) > 0 {
			obj := w.work[len(w.work)-1]
			w.work = w.work[:len(w.work)-1]
			d := w.decls[obj]
			w.walk(d.pkg, d.node)
		}
		for _, tn := range w.named {
			if _, ok := tn.Type().Underlying().(*types.Interface); ok {
				continue
			}
			for _, t := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				ms := types.NewMethodSet(t)
				for i := range ms.Len() {
					m := ms.At(i).Obj().(*types.Func).Origin()
					if !w.reached[m] && w.decls[m] != nil && w.called(t, m.Name(), ms) {
						w.foreign[m] = true
						w.mark(m)
					}
				}
			}
		}
		if len(w.work) == 0 {
			return
		}
	}
}

// called reports whether reached code calls method name of t, whose
// method set is ms, through an interface t implements or a stdlib
// protocol.
func (w *walker) called(t types.Type, name string, ms *types.MethodSet) bool {
	generic := isGeneric(t)
	for _, iface := range w.ifaces[name] {
		it, ok := iface.Underlying().(*types.Interface)
		if generic || !ok || isGeneric(iface) || types.Implements(t, it) {
			return true
		}
	}
	for _, proto := range stdlibIfaces {
		if slices.Contains(proto, name) && !slices.ContainsFunc(proto, func(m string) bool {
			return ms.Lookup(nil, m) == nil
		}) {
			return true
		}
	}
	return false
}

// isGeneric reports whether t (or what it points to) is a generic
// named type.
func isGeneric(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.TypeParams().Len() > 0
}

// report lists the gated declarations the walk did not reach.
func (w *walker) report() *reachReport {
	rep := &reachReport{ownOnly: map[string][]string{}, nFields: len(w.fields)}
	for obj, d := range w.decls {
		dir := d.pkg.dir
		if top, _, _ := strings.Cut(dir, "/"); top != "internal" && top != "cmd" && top != "examples" {
			continue
		}
		name, recv := obj.Name(), ""
		if fn, ok := obj.(*types.Func); ok {
			if r := fn.Type().(*types.Signature).Recv(); r != nil {
				t := r.Type()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				recv = t.(*types.Named).Obj().Name()
				name = recv + "." + name
			} else if name == "init" || name == "main" && obj.Pkg().Name() == "main" {
				continue
			}
		}
		switch {
		case !w.reached[obj]:
			rep.unreached = append(rep.unreached, &finding{pkg: dir, name: name, recv: recv, file: d.file, lines: d.lines})
		case obj.Exported() && !w.foreign[obj] && !w.testUsed[key(obj)] && (recv == "" || ast.IsExported(recv)):
			rep.ownOnly[dir] = append(rep.ownOnly[dir], name)
		}
	}
	for v, f := range w.fields {
		if !w.fieldUsed[v] {
			rep.fields = append(rep.fields, f)
		}
	}
	sort.Slice(rep.fields, func(i, j int) bool { return rep.fields[i].String() < rep.fields[j].String() })
	sort.Slice(rep.unreached, func(i, j int) bool { return rep.unreached[i].String() < rep.unreached[j].String() })
	for _, names := range rep.ownOnly {
		slices.Sort(names)
	}
	return rep
}

// allowed are the findings the check may report, each with its reason.
// A name is one declaration ("internal/pkg.Name",
// "internal/pkg.Type.Method"), one receiver type (the type and all of
// its methods) or one file.
var allowed = []struct{ name, reason string }{
	{"internal/cost/table1.go", "Table 1's per-layer totals: cost's, pfxunet's and protoatm's tests compare meter readings against them"},
	{"internal/signaling.PendingConnection", "§8 library verb: the non-blocking open_connection the paper calls straightforward, with its Await and Cancel"},
	{"internal/signaling.Client.OpenConnectionAsync", "§8 library verb: the non-blocking open_connection"},
	{"internal/ulib.Lib.OpenConnectionAsync", "§8 library verb: the non-blocking open_connection over kern.Proc"},
	{"internal/signaling.Client.UnexportService", "§8 library verb: a server withdraws its service"},
	{"internal/ulib.Lib.UnexportService", "§8 library verb: a server withdraws its service, over kern.Proc"},
	{"internal/signaling.ServiceRequest.Reject", "§8 library verb: a server declines a call"},
	{"internal/testbed.EchoServer.Kill", "§4 robustness: the remote application dies mid-call in signaling's failure tests"},
	{"internal/sim.Rand.Intn", "the seeded source the randomized tests of six packages draw their schedules from"},
	{"internal/signaling.cell.to", "the protocol table's oracle: the state each cell leaves a call in, which its tests check the actions against"},
}

// allows returns the allowlist name covering f, or "".
func allows(f *finding) string {
	for _, a := range allowed {
		if a.name == f.String() || a.name == f.file || f.recv != "" && a.name == f.pkg+"."+f.recv {
			return a.name
		}
	}
	return ""
}

func TestNoUnreachableCode(t *testing.T) {
	start := time.Now()
	root, err := RepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := findUnreached(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(allowed) > 10 {
		t.Errorf("allowlist has %d entries, want at most 10", len(allowed))
	}
	hit := map[string]int{}
	lines, allowedLines := 0, 0
	for _, f := range rep.unreached {
		if name := allows(f); name != "" {
			hit[name]++
			allowedLines += f.lines
			t.Logf("%s (%s, %d lines): allowed by %s", f, f.file, f.lines, name)
			continue
		}
		lines += f.lines
		t.Errorf("%s (%s, %d lines): no root reaches it", f, f.file, f.lines)
	}
	for _, f := range rep.fields {
		if name := allows(f); name != "" {
			hit[name]++
			t.Logf("%s (%s): allowed by %s", f, f.file, name)
			continue
		}
		t.Errorf("%s (%s): no code reads this field", f, f.file)
	}
	t.Logf("%d untagged unexported struct fields, %d that no code reads", rep.nFields, len(rep.fields))
	if lines > 0 {
		t.Logf("%d lines: delete them, move them into an export_test.go if their package's tests use them, or allowlist them with a reason", lines)
	}
	for _, a := range allowed {
		t.Logf("allowed %-46s %2d finding(s): %s", a.name, hit[a.name], a.reason)
		if hit[a.name] == 0 {
			t.Errorf("allowlist entry %s covers nothing: remove it", a.name)
		}
	}
	var byPkg []string // "pkg findings lines", in package order
	for i := 0; i < len(rep.unreached); {
		n, pl, pkg := 0, 0, rep.unreached[i].pkg
		for ; i < len(rep.unreached) && rep.unreached[i].pkg == pkg; i++ {
			n, pl = n+1, pl+rep.unreached[i].lines
		}
		byPkg = append(byPkg, fmt.Sprintf("%s %d (%d lines)", pkg, n, pl))
	}
	t.Logf("%d findings by package: %s", len(rep.unreached), strings.Join(byPkg, ", "))
	t.Logf("%d lines allowlisted, %d lines not", allowedLines, lines)
	dirs, own := make([]string, 0, len(rep.ownOnly)), 0
	for dir, names := range rep.ownOnly {
		dirs = append(dirs, dir)
		own += len(names)
	}
	slices.Sort(dirs)
	t.Logf("%d exported identifiers only their own package uses (not gated):", own)
	for _, dir := range dirs {
		t.Logf("  %s: %s", dir, strings.Join(rep.ownOnly[dir], " "))
	}
	t.Logf("checked in %v", time.Since(start).Round(time.Millisecond))
}

// The fixture module holds one declaration of each class the check
// tells apart (see its lib.go); exactly these are unreached.
func TestUnreachableCodeFixture(t *testing.T) {
	rep, err := findUnreached(filepath.Join("testdata", "unused"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range rep.unreached {
		got = append(got, f.String())
	}
	want := []string{
		"internal/lib.B.Run",     // shares its name with the reached A.Run
		"internal/lib.Dead",      // referenced by nothing
		"internal/lib.Stack.Pop", // a generic type's method nothing calls
		"internal/lib.TestOnly",  // referenced only by its own tests
		"internal/lib.dead",      // unexported
	}
	if !slices.Equal(got, want) {
		t.Errorf("unreached = %q, want %q", got, want)
	}
	var fields []string
	for _, f := range rep.fields {
		fields = append(fields, f.String())
	}
	if want := []string{"internal/lib.Result.unused", "internal/lib.Result.written"}; !slices.Equal(fields, want) {
		t.Errorf("fields no code reads = %q, want %q", fields, want)
	}
	// Shared, which internal/use's tests name, is not listed.
	if own := rep.ownOnly["internal/lib"]; !slices.Equal(own, []string{"Internal", "Result"}) {
		t.Errorf("used only by their own package = %q, want [Internal Result]", own)
	}
}
