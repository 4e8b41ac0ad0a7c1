package proto

import (
	"bytes"
	"io"
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

func BenchmarkWriteFrame(b *testing.B) {
	m := benchMsg(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteFrame(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
}

// The decode benchmarks return each message to the pool, as the
// transport does after delivery: a queue-less frame then decodes with no
// allocation, a frame carrying a queue with one (the queue slice).
func BenchmarkReadFrame(b *testing.B) {
	frame := AppendFrame(nil, benchMsg(0))
	r := bytes.NewReader(frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		m, err := ReadFrame(r)
		if err != nil {
			b.Fatal(err)
		}
		PutMessage(m)
	}
}

func BenchmarkLinkRoundTrip(b *testing.B) {
	m := benchMsg(4)
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
