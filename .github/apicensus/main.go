// Command apicensus checks that every exported name under internal/ is
// earned: each package-level exported identifier, and each exported method
// of an exported type, must be used by some non-test code of the module
// outside its own declaration, or be named in the allow file with one of
// three reasons:
//
//	<pkg>.<Name> interface <Iface>   a method that satisfies Iface
//	<pkg>.<Name> perfbench <probe>   used by the benchmark module alone
//	<pkg>.<Name> paper <TestName>    a paper feature kept with its test
//
// <pkg> is the package's path under internal/, and a method is written
// <pkg>.<Type>.<Method>. Each reason is checked: the receiver must
// implement Iface, perfbench must use the name and quote the probe, and
// the test must exist. A line whose name has a caller of its own, or names
// nothing, fails too, so the file only shrinks with the surface. Struct fields are not counted: a field is
// read by encoding/json and fmt without a use the type checker sees, and a
// Config field is a setting, not an entry point. Test files are parsed
// only for the test names paper lines give.
//
// Run it from the repository root (it walks the main module and the
// perfbench module, which sit outside ./... of each other):
//
//	go run ./.github/apicensus [-allow .github/api-census.allow] [-v]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const (
	modulePath = "mmr"
	benchDir   = "perfbench"
	internal   = modulePath + "/internal/"
)

// pkg is one type-checked package of either module.
type pkg struct {
	path  string
	dir   string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks the packages under the repository root on demand and
// hands every other import to the source importer.
type loader struct {
	fset *token.FileSet
	std  types.ImporterFrom
	dirs map[string]string // import path -> directory
	pkgs map[string]*pkg
	list []*pkg // in the order they finished
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := l.dirs[path]; !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p.types == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	p := &pkg{path: path, dir: l.dirs[path]}
	l.pkgs[path] = p
	names, err := goFiles(p.dir, false)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: l}
	p.types, err = conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	l.list = append(l.list, p)
	return p, nil
}

// goFiles lists dir's Go files that build on this host, the test files
// alone when tests is set and none of them otherwise.
func goFiles(dir string, tests bool) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") != tests {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, n); err != nil {
			return nil, err
		} else if ok {
			names = append(names, n)
		}
	}
	return names, nil
}

// packageDirs maps the import path of every directory under root that
// holds non-test Go files to that directory, skipping testdata and
// directories whose name starts with "." or "_", as the go tool does.
func packageDirs(root string) (map[string]string, error) {
	dirs := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		n := d.Name()
		if path != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
			return filepath.SkipDir
		}
		names, err := goFiles(path, false)
		if err != nil || len(names) == 0 {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if rel == "." {
			dirs[modulePath] = path
		} else {
			dirs[modulePath+"/"+filepath.ToSlash(rel)] = path
		}
		return nil
	})
	return dirs, err
}

// name is one exported identifier under internal/.
type name struct {
	key    string // <pkg>.<Name> or <pkg>.<Type>.<Method>
	obj    types.Object
	recv   *types.Named // the receiver's type, for a method
	pkg    *pkg
	pos    token.Position
	caller string // a file of the main module that uses it
	bench  bool   // perfbench uses it
}

// spans are the source ranges in which a use of an object does not count:
// its own declaration, and for a type the receivers of its methods.
type span struct{ from, to token.Pos }

func main() {
	allowPath := flag.String("allow", ".github/api-census.allow", "allow file")
	verbose := flag.Bool("v", false, "print the census totals")
	flag.Parse()
	if err := run(*allowPath, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "apicensus:", err)
		os.Exit(1)
	}
}

func run(allowPath string, verbose bool) error {
	fset := token.NewFileSet()
	dirs, err := packageDirs(".")
	if err != nil {
		return err
	}
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return fmt.Errorf("the source importer does not implement types.ImporterFrom")
	}
	l := &loader{fset: fset, std: std, dirs: dirs, pkgs: map[string]*pkg{}}
	paths := make([]string, 0, len(dirs))
	for path := range dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := l.load(path); err != nil {
			return err
		}
	}

	names := map[types.Object]*name{}
	skip := map[types.Object][]span{}
	var byKey []*name
	for _, p := range l.list {
		if !strings.HasPrefix(p.path, internal) {
			continue
		}
		short := strings.TrimPrefix(p.path, internal)
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if !obj.Exported() {
				continue
			}
			byKey = append(byKey, &name{key: short + "." + n, obj: obj, pkg: p, pos: fset.Position(obj.Pos())})
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() {
					byKey = append(byKey, &name{key: short + "." + n + "." + m.Name(), obj: m, recv: named, pkg: p, pos: fset.Position(m.Pos())})
				}
			}
		}
		collectSpans(p, skip)
	}
	for _, n := range byKey {
		names[n.obj] = n
	}

	for _, p := range l.list {
		bench := p.path == modulePath+"/"+benchDir || strings.HasPrefix(p.path, modulePath+"/"+benchDir+"/")
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			n := names[obj]
			if n == nil || inSpans(skip[obj], id.Pos()) {
				continue
			}
			if bench {
				n.bench = true
			} else {
				n.caller = fset.Position(id.Pos()).Filename
			}
		}
	}

	allow, err := readAllow(allowPath)
	if err != nil {
		return err
	}
	keyed := map[string]*name{}
	for _, n := range byKey {
		keyed[n.key] = n
	}
	var probs []string
	counts := map[string]int{}
	for _, n := range byKey {
		a, listed := allow[n.key]
		switch {
		case n.caller != "" && listed:
			probs = append(probs, fmt.Sprintf("%s: %s is allowed (%s) but has a caller in %s", a.where, n.key, a.reason, n.caller))
		case n.caller != "":
			counts["called"]++
		case !listed && n.bench:
			probs = append(probs, fmt.Sprintf("%s: %s is used by perfbench alone and has no allow line naming the probe", n.pos, n.key))
		case !listed:
			probs = append(probs, fmt.Sprintf("%s: %s has no non-test caller and no allow line", n.pos, n.key))
		default:
			if err := a.check(l, n); err != nil {
				probs = append(probs, fmt.Sprintf("%s: %s: %v", a.where, n.key, err))
			}
			counts[a.reason]++
		}
	}
	for key, a := range allow {
		if keyed[key] == nil {
			probs = append(probs, fmt.Sprintf("%s: %s names no exported identifier under internal/", a.where, key))
		}
	}
	sort.Strings(probs)
	for _, p := range probs {
		fmt.Println(p)
	}
	if verbose || len(probs) > 0 {
		fmt.Printf("apicensus: %d exported names under internal/: %d called, %d interface, %d perfbench, %d paper; %d problems\n",
			len(byKey), counts["called"], counts["interface"], counts["perfbench"], counts["paper"], len(probs))
	}
	if len(probs) > 0 {
		return fmt.Errorf("%d problems", len(probs))
	}
	return nil
}

// origin maps an instantiated generic function or method to its declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

// collectSpans records, for every package-level object and method of p,
// the ranges in which its uses do not count.
func collectSpans(p *pkg, skip map[types.Object][]span) {
	add := func(id *ast.Ident, from, to token.Pos) {
		if obj := p.info.Defs[id]; obj != nil {
			skip[obj] = append(skip[obj], span{from, to})
		}
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(d.Name, d.Pos(), d.End())
				if fn, ok := p.info.Defs[d.Name].(*types.Func); ok && d.Recv != nil {
					t := fn.Type().(*types.Signature).Recv().Type()
					if ptr, ok := t.(*types.Pointer); ok {
						t = ptr.Elem()
					}
					if named, ok := t.(*types.Named); ok {
						tn := named.Origin().Obj()
						skip[tn] = append(skip[tn], span{d.Recv.Pos(), d.Recv.End()})
					}
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s.Pos(), s.End())
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, s.Pos(), s.End())
						}
					}
				}
			}
		}
	}
}

func inSpans(ss []span, pos token.Pos) bool {
	for _, s := range ss {
		if s.from <= pos && pos < s.to {
			return true
		}
	}
	return false
}

// allowLine is one line of the allow file: a reason and its argument.
type allowLine struct {
	where  string
	reason string
	arg    string
}

// readAllow parses the allow file: one "<key> <reason> <arg> [note...]"
// per line, blank lines and lines starting with # ignored.
func readAllow(path string) (map[string]allowLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]allowLine{}
	sc := bufio.NewScanner(f)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		where := fmt.Sprintf("%s:%d", path, ln)
		fs := strings.Fields(line)
		if len(fs) < 3 {
			return nil, fmt.Errorf("%s: want <pkg>.<Name> <reason> <argument>", where)
		}
		switch fs[1] {
		case "interface", "perfbench", "paper":
		default:
			return nil, fmt.Errorf("%s: reason %q is not one of interface, perfbench, paper", where, fs[1])
		}
		if _, dup := allow[fs[0]]; dup {
			return nil, fmt.Errorf("%s: %s is listed twice", where, fs[0])
		}
		allow[fs[0]] = allowLine{where: where, reason: fs[1], arg: fs[2]}
	}
	return allow, sc.Err()
}

// check verifies that the line's reason holds for n.
func (a allowLine) check(l *loader, n *name) error {
	switch a.reason {
	case "interface":
		if n.recv == nil {
			return fmt.Errorf("reason interface, but it is not a method")
		}
		iface, err := lookupInterface(l, a.arg)
		if err != nil {
			return err
		}
		if _, i, _ := types.LookupFieldOrMethod(iface, false, nil, n.obj.Name()); i == nil {
			return fmt.Errorf("%s has no method %s", a.arg, n.obj.Name())
		}
		if !types.Implements(n.recv, iface) && !types.Implements(types.NewPointer(n.recv), iface) {
			return fmt.Errorf("%s does not implement %s", n.recv.Obj().Name(), a.arg)
		}
	case "perfbench":
		if !n.bench {
			return fmt.Errorf("reason perfbench, but perfbench does not use it")
		}
		if !quotedIn(l, modulePath+"/"+benchDir, a.arg) {
			return fmt.Errorf("perfbench names no probe %q", a.arg)
		}
	case "paper":
		// The test lives with the name, or, for a cross-engine check,
		// in a package that imports it.
		for _, dir := range l.dirs {
			if ok, err := hasTest(dir, a.arg); err != nil || ok {
				return err
			}
		}
		return fmt.Errorf("no package has a test %s", a.arg)
	}
	return nil
}

// lookupInterface resolves "<stdpkg>.<Name>" or "<pkg>.<Name>" (a package
// under internal/) to an interface type.
func lookupInterface(l *loader, ref string) (*types.Interface, error) {
	var obj types.Object
	if i := strings.LastIndex(ref, "."); i > 0 {
		path := ref[:i]
		if _, ok := l.dirs[internal+path]; ok {
			path = internal + path
		}
		tp, err := l.Import(path)
		if err != nil {
			return nil, err
		}
		obj = tp.Scope().Lookup(ref[i+1:])
	}
	if obj == nil {
		return nil, fmt.Errorf("no type %s", ref)
	}
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		return nil, fmt.Errorf("%s is not an interface", ref)
	}
	return iface, nil
}

// quotedIn reports whether a string literal equal to s appears in the
// non-test sources of the package at path.
func quotedIn(l *loader, path, s string) bool {
	p := l.pkgs[path]
	if p == nil {
		return false
	}
	found := false
	for _, f := range p.files {
		ast.Inspect(f, func(nd ast.Node) bool {
			if lit, ok := nd.(*ast.BasicLit); ok && lit.Kind == token.STRING && strings.Trim(lit.Value, "`\"") == s {
				found = true
			}
			return !found
		})
	}
	return found
}

// hasTest reports whether a test file in dir declares the function name.
func hasTest(dir, name string) (bool, error) {
	files, err := goFiles(dir, true)
	if err != nil {
		return false, err
	}
	fset := token.NewFileSet()
	for _, fn := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, fn), nil, parser.SkipObjectResolution)
		if err != nil {
			return false, err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name {
				return true, nil
			}
		}
	}
	return false, nil
}
