package metrics

import (
	"io"
	"testing"
)

// The disabled (nil-handle) path must stay free: these benchmarks are
// the evidence behind the zero-overhead claim in docs/OBSERVABILITY.md.

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "b", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncNil(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(DefLatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100) / 250)
	}
}

func BenchmarkHistogramObserveNil(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.004)
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	for _, k := range Kinds {
		r.Counter(MetricMessagesTotal, "m", Labels{"kind": k.String()}).Add(uint64(k))
	}
	h := r.Histogram(MetricQueueWait, "l", DefLatencyBuckets, nil)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
