package proto

import (
	"bytes"
	"testing"
)

func benchMsg(queue int) *Message {
	m := &Message{
		Kind: KindToken,
		Lock: 7,
		From: 2,
		To:   5,
		TS:   41,
		Seq:  9,
		Req:  Request{Origin: 2, Priority: 1, TS: 40},
	}
	for i := 0; i < queue; i++ {
		m.Queue = append(m.Queue, Request{Origin: NodeID(i), TS: Timestamp(i)})
	}
	return m
}

func BenchmarkAppendLinkData(b *testing.B) {
	m := benchMsg(0)
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendLinkData(buf[:0], uint64(i), m)
	}
}

// The decode benchmarks return each message to the pool, as the
// transport does after delivery: a queue-less frame then decodes with no
// allocation, a frame carrying a queue with one (the queue slice).
func BenchmarkReadLinkFrame(b *testing.B) {
	benchReadLinkFrame(b, benchMsg(0))
}

func BenchmarkLinkRoundTrip(b *testing.B) {
	benchReadLinkFrame(b, benchMsg(4))
}

func benchReadLinkFrame(b *testing.B, m *Message) {
	frame := AppendLinkData(nil, 1, m)
	r := bytes.NewReader(frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		_, _, m, err := ReadLinkFrame(r)
		if err != nil {
			b.Fatal(err)
		}
		PutMessage(m)
	}
}
