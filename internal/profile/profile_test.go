package profile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hierlock/internal/metrics"
)

// TestCaptureWritesEveryKind: WriteAll writes one non-empty <kind>.pprof
// per kind, and a closed stop channel cuts the CPU sample short.
func TestCaptureWritesEveryKind(t *testing.T) {
	dir := t.TempDir()
	stop := make(chan struct{})
	close(stop)
	start := time.Now()
	if err := WriteAll(dir, stop); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= CPUDuration {
		t.Fatalf("WriteAll took %v with stop closed, want the CPU sample cut short", took)
	}
	for _, kind := range Kinds {
		fi, err := os.Stat(filepath.Join(dir, kind+".pprof"))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s profile is empty", kind)
		}
	}
}

// TestNilProfilerSafe: what New returns, and what RegisterCollectors
// does with it, is nothing — the benchmark harness still calls both.
func TestNilProfilerSafe(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "profiles")
	p, err := New(dir, time.Hour)
	if p != nil || err != nil {
		t.Fatalf("New = %v, %v, want nil, nil", p, err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("New made its directory (%v)", err)
	}
	reg := metrics.NewRegistry()
	RegisterCollectors(reg, p)
	var out bytes.Buffer
	if err := reg.WritePrometheus(&out); err != nil || out.Len() != 0 {
		t.Fatalf("RegisterCollectors registered %q (%v), want nothing", out.String(), err)
	}
}
