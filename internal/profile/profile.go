// Package profile writes the runtime's profiles (CPU, heap, goroutine,
// mutex, block) into a directory: an incident's (see
// introspect.Recorder), so a stall leaves its execution profile beside its
// trace. Profiles on demand are /debug/pprof's job.
//
// Mutex and block profiling have a runtime-wide cost and are off by
// default; EnableRuntimeProfiles turns them on behind lockd's
// -mutex-profile-fraction and -block-profile-rate flags.
package profile

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"hierlock/internal/metrics"
)

// Kinds lists the profile kinds WriteAll writes, each as <kind>.pprof.
var Kinds = []string{"cpu", "heap", "goroutine", "mutex", "block"}

// CPUDuration is how long WriteAll samples the CPU.
const CPUDuration = time.Second

// EnableRuntimeProfiles turns on the runtime's contention profilers:
// mutexFraction > 0 samples 1/fraction of mutex contention events and
// blockRate > 0 samples blocking events lasting at least that many
// nanoseconds (1 samples everything). Zero leaves the corresponding
// profiler off; the profiles then contain whatever the runtime
// accumulated (typically nothing).
func EnableRuntimeProfiles(mutexFraction, blockRate int) {
	if mutexFraction > 0 {
		runtime.SetMutexProfileFraction(mutexFraction)
	}
	if blockRate > 0 {
		runtime.SetBlockProfileRate(blockRate)
	}
}

// WriteAll writes one profile of every kind into dir, which must exist.
// The CPU profile samples for CPUDuration or until stop closes, whichever
// is first. A kind that fails (the CPU profiler already running, say)
// does not keep the others from being written; the errors are joined.
func WriteAll(dir string, stop <-chan struct{}) error {
	var errs []error
	for _, kind := range Kinds {
		if err := write(filepath.Join(dir, kind+".pprof"), kind, stop); err != nil {
			errs = append(errs, fmt.Errorf("profile %s: %w", kind, err))
		}
	}
	return errors.Join(errs...)
}

func write(path, kind string, stop <-chan struct{}) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch kind {
	case "cpu":
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		select {
		case <-time.After(CPUDuration):
		case <-stop:
		}
		pprof.StopCPUProfile()
		return nil
	case "heap":
		// Allocation state as of the most recent GC.
		runtime.GC()
	}
	return pprof.Lookup(kind).WriteTo(f, 0)
}

// Profiler is what New returns. It holds nothing.
type Profiler struct{}

// New returns a nil Profiler and creates nothing: profiles are written
// into incidents (WriteAll).
//
// Deprecated: the benchmark PR (ROADMAP item 1) deletes it with its call.
func New(dir string, minInterval time.Duration) (*Profiler, error) { return nil, nil }

// RegisterCollectors registers nothing: incidents are counted by
// hierlock_incidents_total.
//
// Deprecated: the benchmark PR (ROADMAP item 1) deletes it with its call.
func RegisterCollectors(reg *metrics.Registry, p *Profiler) {}
