package main

import (
	"os"
	"path/filepath"
	"regexp"
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
