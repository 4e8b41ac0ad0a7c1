package trace_test

import (
	"testing"
	"time"

	"hierlock/internal/audit"
	"hierlock/internal/metrics"
	"hierlock/internal/modes"
	"hierlock/internal/proto"
	"hierlock/internal/trace"
)

func benchEntry(i int) trace.Entry {
	return trace.Entry{Op: trace.OpSend, Kind: proto.KindRequest,
		From: proto.NodeID(i % 8), To: proto.NodeID((i + 1) % 8), Lock: 3}
}

func BenchmarkRecord(b *testing.B) {
	r := trace.New(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(benchEntry(i))
	}
}

func BenchmarkRecordNil(b *testing.B) {
	var r *trace.Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(benchEntry(i))
	}
}

func BenchmarkRecordPaused(b *testing.B) {
	r := trace.New(4096)
	r.SetEnabled(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(benchEntry(i))
	}
}

// BenchmarkAdmitResidentBatch is the admission path a member's stripe
// takes for resident Lock/Unlock pairs, wired as lockd wires it: each op
// admits one full batch of 16 grants that carry their acquire and their
// release (48 ring slots) into a 4096-slot ring, with the auditor tapped.
// The locks share a member stripe (lock mod 64), as a batch's do.
func BenchmarkAdmitResidentBatch(b *testing.B) {
	const batch = 16
	r := trace.New(4096)
	r.SetTap(audit.New(audit.Config{Registry: metrics.NewRegistry(), Root: 0}).Record)
	es := make([]trace.Entry, batch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range es {
			seq := uint64(2 * (i*batch + j))
			at := time.Duration(3 * (i*batch + j + 1))
			es[j] = trace.Entry{At: at, Issued: at, Released: at + 1, ReleaseSeq: seq + 2,
				Op: trace.OpGranted, Node: 0, Lock: proto.LockID(64 * j), Mode: modes.W,
				Trace: proto.TraceID{Node: 0, Seq: seq + 1}}
		}
		r.Admit(es)
	}
}

func BenchmarkAssembleCausal(b *testing.B) {
	r := trace.New(4096)
	for i := 0; i < 4096/4; i++ {
		n := proto.NodeID(i % 8)
		tr := proto.TraceID{Node: n, Seq: uint64(i + 1)}
		r.Record(trace.Entry{Op: trace.OpAcquire, Node: n, Lock: 3, Trace: tr})
		r.Record(trace.Entry{Op: trace.OpSend, Kind: proto.KindToken, From: 0, To: n, Lock: 3, Trace: tr})
		r.Record(trace.Entry{Op: trace.OpGranted, Node: n, Lock: 3, Trace: tr})
		r.Record(trace.Entry{Op: trace.OpRelease, Node: n, Lock: 3, Trace: tr})
	}
	dumps := []trace.Dump{r.DumpLast(0)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if paths := trace.AssembleCausal(dumps); len(paths) == 0 {
			b.Fatal("no paths")
		}
	}
}
