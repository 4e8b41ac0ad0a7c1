package metrics

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// readCatalogDoc returns docs/OBSERVABILITY.md.
func readCatalogDoc(t *testing.T, root string) string {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join(root, "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatalf("reading the metric catalog: %v", err)
	}
	return string(doc)
}

// sourceFamilies scans non-test source for quoted `hierlock_*` metric
// family names, returning family → files naming it.
func sourceFamilies(t *testing.T, root string) map[string][]string {
	t.Helper()
	family := regexp.MustCompile(`"(hierlock_[a-z0-9_]+)"`)
	families := map[string][]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for _, m := range family.FindAllSubmatch(src, -1) {
			name := string(m[1])
			families[name] = append(families[name], rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(families) == 0 {
		t.Fatal("found no hierlock_* metric families in source — scan broken?")
	}
	return families
}

// TestMetricFamiliesDocumented is the docs-drift gate: every
// `hierlock_*` metric family named anywhere in non-test source must
// appear in docs/OBSERVABILITY.md's catalog. Adding a family without
// documenting it fails CI (the check runs under `make test`, which
// `make ci` includes).
func TestMetricFamiliesDocumented(t *testing.T) {
	root := filepath.Join("..", "..")
	doc := readCatalogDoc(t, root)
	families := sourceFamilies(t, root)
	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !strings.Contains(doc, name) {
			t.Errorf("metric family %q (declared in %s) is not documented in docs/OBSERVABILITY.md",
				name, strings.Join(families[name], ", "))
		}
	}
}

// TestMetricCatalogDocumented is the gate's other direction: every
// `hierlock_*` name docs/OBSERVABILITY.md mentions (a histogram's
// _bucket/_count/_sum series counting as its family) is a family the
// source declares, so the docs cannot go on describing a metric that
// was deleted or renamed — and the two sets are the same size.
func TestMetricCatalogDocumented(t *testing.T) {
	root := filepath.Join("..", "..")
	families := sourceFamilies(t, root)
	token := regexp.MustCompile(`hierlock_[a-z0-9_]+`)
	series := regexp.MustCompile(`_(bucket|count|sum)$`)
	documented := map[string]bool{}
	for _, name := range token.FindAllString(readCatalogDoc(t, root), -1) {
		if _, ok := families[name]; !ok {
			name = series.ReplaceAllString(name, "")
		}
		if _, ok := families[name]; !ok {
			t.Errorf("docs/OBSERVABILITY.md names %q, which no source file declares", name)
		}
		documented[name] = true
	}
	if len(documented) != len(families) {
		t.Errorf("docs name %d families, source declares %d", len(documented), len(families))
	}
}
