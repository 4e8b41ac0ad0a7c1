package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hierlock/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestFigureCSVGolden pins "figure CSVs byte-identical for seed 1", the
// acceptance criterion of every simulator change: Figures 5, 6 and 7 at
// nodes 2, 8, 16 and 32, 60 s virtual after a 10 s warm-up, seed 1,
// against a golden written at the commit that introduced it. -update
// rewrites the file.
func TestFigureCSVGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("three figure sweeps; skipped under -short")
	}
	cfg := Config{
		NodeCounts: []int{2, 8, 16, 32},
		Warmup:     10 * time.Second,
		Duration:   60 * time.Second,
		Seed:       1,
	}
	var got strings.Builder
	for _, f := range []struct {
		name string
		run  func(Config) (*metrics.Table, error)
	}{{"fig5", Figure5}, {"fig6", Figure6}, {"fig7", Figure7}} {
		tab, err := f.run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		got.WriteString("# " + f.name + "\n" + tab.CSV())
	}
	path := filepath.Join("testdata", "figures_seed1.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("figure CSVs differ from %s\n--- got\n%s--- want\n%s", path, got.String(), want)
	}
}
