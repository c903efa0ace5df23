package systolicdb

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachReasons are the only reasons testdata/reachability.txt may give for
// keeping a function that no binary links; the file's header defines them.
var reachReasons = map[string]bool{"public-api": true, "test-oracle": true, "test-support": true}

// TestReachability is the reachability ledger: every function or method
// declared in a non-test file is linked into some binary of the
// repository, or listed in testdata/reachability.txt with one reason.
// It builds every main package (the commands, the examples and the
// nested benchmark module cmd/loadgen) with inlining off, so that every
// function called keeps a symbol, and compares the text symbols that
// `go tool nm` reports against the declarations. Because it builds
// cmd/loadgen, it also fails when a change breaks the benchmark's build.
func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary of the repository")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	run := func(dir string, args ...string) []byte {
		t.Helper()
		cmd := exec.Command(goTool, args...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
		}
		return out
	}

	// Every main package: the root module's, and the nested benchmark module.
	type mainPkg struct{ dir, path string }
	var mains []mainPkg
	list := run(".", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")
	for _, p := range strings.Fields(string(list)) {
		mains = append(mains, mainPkg{".", p})
	}
	mains = append(mains, mainPkg{filepath.Join("cmd", "loadgen"), "systolicdb/cmd/loadgen"})

	// Symbols of a main package all start "main."; the ledger names them by
	// import path, like every other package's.
	linked := map[string]bool{}
	tmp := t.TempDir()
	for i, m := range mains {
		bin := filepath.Join(tmp, fmt.Sprintf("main%d", i))
		run(m.dir, "build", "-gcflags=all=-l", "-o", bin, m.path)
		sc := bufio.NewScanner(bytes.NewReader(run(".", "tool", "nm", bin)))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// addr kind name; the name may hold spaces inside brackets.
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				sym := stripBrackets(f[2])
				if rest, ok := strings.CutPrefix(sym, "main."); ok {
					sym = m.path + "." + rest
				}
				linked[sym] = true
			}
		}
	}

	allowed, err := readReachability(filepath.Join("testdata", "reachability.txt"))
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	var unlisted []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == filepath.Join("cmd", "loadgen")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "systolicdb"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			names := funcSymbols(pkg, fn)
			if anyLinked(linked, names) {
				continue
			}
			declared[names[0]] = true
			if _, ok := allowed[names[0]]; !ok {
				unlisted = append(unlisted, fmt.Sprintf("%s (%s)", names[0], path))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(unlisted)
	for _, u := range unlisted {
		t.Errorf("linked into no binary and not in testdata/reachability.txt: %s", u)
	}
	var stale []string
	for name := range allowed {
		if !declared[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, s := range stale {
		t.Errorf("testdata/reachability.txt lists %s, which is linked or no longer declared", s)
	}
}

// funcSymbols returns the symbols the linker may give fn, the first being
// the name the ledger uses: pkg.F, pkg.(*T).M, or, for a method with a
// value receiver, pkg.T.M or the pointer wrapper pkg.(*T).M. Type
// parameters are dropped, as stripBrackets drops them from symbols.
func funcSymbols(pkg string, fn *ast.FuncDecl) []string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return []string{pkg + "." + fn.Name.Name}
	}
	typ := fn.Recv.List[0].Type
	ptr := false
	if star, ok := typ.(*ast.StarExpr); ok {
		ptr, typ = true, star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	recv := typ.(*ast.Ident).Name
	if ptr {
		return []string{pkg + ".(*" + recv + ")." + fn.Name.Name}
	}
	return []string{pkg + "." + recv + "." + fn.Name.Name, pkg + ".(*" + recv + ")." + fn.Name.Name}
}

func anyLinked(linked map[string]bool, names []string) bool {
	for _, n := range names {
		if linked[n] {
			return true
		}
	}
	return false
}

// stripBrackets drops every bracketed type-argument list from a symbol,
// so that fault.(*Ladder[go.shape.int]).Move reads fault.(*Ladder).Move.
func stripBrackets(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// readReachability reads the allow-list: one "symbol reason" pair a line;
// blank lines and lines starting with # are ignored.
func readReachability(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allowed := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"symbol reason\", got %q", path, i+1, line)
		}
		if !reachReasons[f[1]] {
			return nil, fmt.Errorf("%s:%d: unknown reason %q", path, i+1, f[1])
		}
		if f[1] == "public-api" && !strings.HasPrefix(f[0], "systolicdb.") {
			return nil, fmt.Errorf("%s:%d: public-api is only for the root package systolicdb, not %s", path, i+1, f[0])
		}
		if _, dup := allowed[f[0]]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, i+1, f[0])
		}
		allowed[f[0]] = f[1]
	}
	return allowed, nil
}
