// The caller guard: every package-level function and method declared under
// internal/ must be reached from some non-test code — the facade, cmd/,
// examples/, internal/ itself or the bench/ module. A helper that only its own
// tests call is code the served system does not run, so the guard names it
// and the fix is to delete it (or, for a test oracle, to move it into a
// _test.go file).
//
// Uses are resolved by go/types, not by name: a call of one type's method
// does not keep another type's method of the same name alive, nor does a
// standard-library function keep an internal/ function it shares a name with.
package sourcecurrents_test

import (
	"bufio"
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
	"testing"
)

// callerAllowlist names what may have no non-test caller, with the reason.
// A bare name is a method satisfying a standard interface, which calls reach
// through the interface and go/types resolves to the interface's method; a
// qualified name is one function.
var callerAllowlist = map[string]string{
	"ServeHTTP": "http.Handler",
	"String":    "fmt.Stringer",
	"Error":     "error",
	"Read":      "io.Reader",

	"sourcecurrents/internal/snapio.Reseal":                  "test-only on purpose: seals damage written into a container so it reaches the checks behind the seal",
	"sourcecurrents/internal/strsim.AuthorList.CanonicalKey": "the value canonicalizer a world will name (ROADMAP item 23)",
}

func TestInternalCallers(t *testing.T) {
	found, err := uncalledInternal(".", callerAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Errorf("no non-test caller: %s", f)
	}
	if len(found) > 0 {
		t.Log("delete each function above with its tests, move a test oracle into a _test.go file, or list it with its reason in callerAllowlist (callers_test.go)")
	}
}

// TestInternalCallersFindsPlanted runs the guard over a module in which one
// helper is called only from its test, one method only from another package's
// test, one function only from itself, and one shares its name with a function
// main calls; the allowlist names a function that has a caller. A function
// only the nested bench module calls is not reported.
func TestInternalCallersFindsPlanted(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module planted\n\ngo 1.21\n",
		"main.go": `package main

import "planted/internal/a"

func main() { println(a.Used(1), a.T{}.String(), a.T{}.Kept()) }
`,
		"internal/a/a.go": `package a

type T struct{}

func init() {}

func (T) String() string { return "" }
func (T) Kept() int      { return 0 }
func (T) Orphan() int    { return 0 }

func Used(x int) int { return helper(x) }
func helper(x int) int { return x }
func Unused() int { return Used(2) }
func recurse(n int) int {
	if n == 0 {
		return 0
	}
	return recurse(n - 1)
}
`,
		"internal/a/a_test.go": `package a

import "testing"

func TestUnused(t *testing.T) { _ = Unused() + recurse(1) }
`,
		"internal/b/b_test.go": `package b

import (
	"testing"

	"planted/internal/a"
)

func TestOrphan(t *testing.T) { _ = a.T{}.Orphan() }
`,
		"bench/go.mod":  "module planted/bench\n\ngo 1.21\n",
		"bench/main.go": "package main\n\nimport \"planted/internal/c\"\n\nfunc main() { c.BenchOnly() }\n",
		"internal/c/c.go": `package c

func BenchOnly() {}

// Used shares its name with a.Used, which main calls; no one calls this one.
func Used() {}
`,
	}
	for name, src := range files {
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	found, err := uncalledInternal(root, map[string]string{
		"String":                    "fmt.Stringer",
		"planted/internal/a.helper": "stale: Used calls it",
	})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range found {
		names = append(names, strings.Fields(f)[0])
	}
	want := []string{
		"planted/internal/a.T.Orphan",
		"planted/internal/a.Unused",
		"planted/internal/a.helper",
		"planted/internal/a.recurse",
		"planted/internal/c.Used",
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("guard found %q, want %q", names, want)
	}
}

// uncalledInternal type-checks the non-test packages of the module at root,
// and of any module nested in it (bench/), and returns, sorted, every
// package-level func or method under internal/ that no non-test use outside
// its own body resolves to and allow does not name, as "pkg.[Recv.]Name
// (file:line)", and every function allow names that is called after all or
// not declared, so the list cannot go stale.
func uncalledInternal(root string, allow map[string]string) ([]string, error) {
	dirs := map[string]string{} // import path -> directory
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ip, err := importPath(root, path)
		if err != nil {
			return err
		}
		dirs[ip] = path
		return nil
	})
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	c := &checker{
		fset: fset,
		dirs: dirs,
		std:  importer.Default(),
		pkgs: map[string]*types.Package{},
		used: map[*types.Func]bool{},
	}
	paths := make([]string, 0, len(dirs))
	for ip := range dirs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := c.check(ip); err != nil {
			return nil, err
		}
	}

	var found []string
	allowed := map[string]bool{}
	for _, fn := range c.declared {
		path := fn.Pkg().Path()
		if c.used[fn] || !strings.Contains(path+"/", "/internal/") || fn.Name() == "init" {
			continue
		}
		name := path + "." + fn.Name()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if _, ok := allow[fn.Name()]; ok {
				continue
			}
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			name = path + "." + t.(*types.Named).Obj().Name() + "." + fn.Name()
		}
		if _, ok := allow[name]; ok {
			allowed[name] = true
			continue
		}
		pos := fset.Position(fn.Pos())
		rel, _ := filepath.Rel(root, pos.Filename)
		found = append(found, fmt.Sprintf("%s (%s:%d)", name, filepath.ToSlash(rel), pos.Line))
	}
	for name := range allow {
		if strings.Contains(name, ".") && !allowed[name] {
			found = append(found, name+" (allowlisted, but called or not declared)")
		}
	}
	sort.Strings(found)
	return found, nil
}

// importPath is dir's import path: the module path of the nearest go.mod at
// or above it (within root), joined with dir's path below that file.
func importPath(root, dir string) (string, error) {
	for mod := dir; ; mod = filepath.Dir(mod) {
		if path, err := modulePath(filepath.Join(mod, "go.mod")); err == nil {
			rel, err := filepath.Rel(mod, dir)
			if err != nil || rel == "." {
				return path, err
			}
			return path + "/" + filepath.ToSlash(rel), nil
		} else if !os.IsNotExist(err) {
			return "", err
		}
		if rel, _ := filepath.Rel(root, mod); rel == "." {
			return "", fmt.Errorf("%s: no go.mod at or above it", dir)
		}
	}
}

func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// checker type-checks the module's packages on demand, each once, so a
// package is checked after everything it imports; it also serves as their
// importer, handing the standard library to std.
type checker struct {
	fset     *token.FileSet
	dirs     map[string]string
	std      types.Importer
	pkgs     map[string]*types.Package
	declared []*types.Func        // package-level funcs and methods
	used     map[*types.Func]bool // reached from non-test code outside their own body
}

func (c *checker) Import(path string) (*types.Package, error) {
	if _, ok := c.dirs[path]; ok {
		return c.check(path)
	}
	return c.std.Import(path)
}

// check type-checks the non-test files of one package, or returns nil for a
// directory that has none.
func (c *checker) check(path string) (*types.Package, error) {
	if pkg, ok := c.pkgs[path]; ok {
		return pkg, nil
	}
	c.pkgs[path] = nil
	bp, err := build.Default.ImportDir(c.dirs[path], 0)
	if _, none := err.(*build.NoGoError); none {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(bp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: c}).Check(path, c.fset, files, info)
	if err != nil {
		return nil, err
	}
	c.pkgs[path] = pkg

	type span struct{ pos, end token.Pos }
	own := map[*types.Func]span{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn := info.Defs[fd.Name].(*types.Func)
				c.declared = append(c.declared, fn)
				own[fn] = span{fd.Pos(), fd.End()}
			}
		}
	}
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if s, ok := own[fn]; ok && s.pos <= id.Pos() && id.Pos() < s.end {
			continue // recursion keeps nothing alive
		}
		c.used[fn] = true
	}
	return pkg, nil
}
