package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestEveryFlagDocumented is the knob-docs gate: every flag lockd
// registers is named, as -name, in docs/OPERATIONS.md or
// docs/OBSERVABILITY.md, so no knob ships without a runbook sentence.
func TestEveryFlagDocumented(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var docs []byte
	for _, name := range []string{"OPERATIONS.md", "OBSERVABILITY.md"} {
		doc, err := os.ReadFile(filepath.Join("..", "..", "docs", name))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc...)
	}
	flags := regexp.MustCompile(`flag\.[A-Z][a-z]+\("([a-z-]+)"`).FindAllSubmatch(src, -1)
	found := map[string]bool{}
	for _, f := range flags {
		found[string(f[1])] = true
	}
	for _, name := range []string{"id", "peers", "data-dir"} {
		if !found[name] {
			t.Fatalf("the scan of main.go missed -%s: it is broken", name)
		}
	}
	for _, f := range flags {
		name := string(f[1])
		if !regexp.MustCompile(`(^|[^a-z-])-` + regexp.QuoteMeta(name) + `([^a-z-]|$)`).Match(docs) {
			t.Errorf("lockd flag -%s is not documented in docs/OPERATIONS.md or docs/OBSERVABILITY.md", name)
		}
	}
}

// TestDebugEndpointsDocumented is the debug-surface gate: the paths the
// lockserver's debug mux registers, lockd's -debug help and the endpoint
// table of docs/OBSERVABILITY.md name the same endpoints (net/http/pprof's
// handlers count as one, /debug/pprof).
func TestDebugEndpointsDocumented(t *testing.T) {
	endpoint := func(path string) string {
		if strings.HasPrefix(path, "/debug/pprof") {
			return "/debug/pprof"
		}
		return path
	}
	set := func(paths []string) []string {
		var out []string
		for _, p := range paths {
			out = append(out, endpoint(p))
		}
		slices.Sort(out)
		return slices.Compact(out)
	}

	var mux, help []string
	fset := token.NewFileSet()
	for _, file := range []string{filepath.Join("..", "..", "internal", "lockserver", "debug.go"), "main.go"} {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			lit, isLit := call.Args[0].(*ast.BasicLit)
			if !ok || !isLit || lit.Kind != token.STRING {
				return true
			}
			arg, _ := strconv.Unquote(lit.Value)
			switch {
			case sel.Sel.Name == "HandleFunc":
				mux = append(mux, arg)
			case sel.Sel.Name == "String" && arg == "debug" && len(call.Args) == 3:
				usage, _ := strconv.Unquote(call.Args[2].(*ast.BasicLit).Value)
				help = regexp.MustCompile(`/[a-z/]+`).FindAllString(usage, -1)
			}
			return true
		})
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	var table []string
	for _, m := range regexp.MustCompile("(?m)^\\| `(/[^`]*)`").FindAllSubmatch(doc, -1) {
		table = append(table, string(m[1]))
	}

	registered := set(mux)
	if !slices.Contains(registered, "/metrics") || !slices.Contains(registered, "/debug/pprof") {
		t.Fatalf("the scan of debug.go found %v: it is broken", registered)
	}
	if got := set(help); !slices.Equal(got, registered) {
		t.Errorf("lockd's -debug help names %v, the debug mux registers %v", got, registered)
	}
	if got := set(table); !slices.Equal(got, registered) {
		t.Errorf("docs/OBSERVABILITY.md's endpoint table names %v, the debug mux registers %v", got, registered)
	}
}
