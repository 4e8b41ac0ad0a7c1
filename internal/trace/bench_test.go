package trace_test

import (
	"testing"

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
