//go:build !race

package proto

// Allocation regression tests for the pooled codec. The race detector
// instruments allocations and defeats testing.AllocsPerRun, so these are
// compiled out under -race; `make ci` runs them in the plain test pass.

import (
	"bytes"
	"testing"
)

func allocMsg() *Message {
	return &Message{
		Kind: KindToken,
		Lock: 7,
		From: 2,
		To:   5,
		TS:   41,
		Seq:  9,
		Req:  Request{Origin: 2, Priority: 1, TS: 40},
	}
}

func TestAppendFrameAllocs(t *testing.T) {
	m := allocMsg()
	buf := make([]byte, 0, 1024)
	if got := testing.AllocsPerRun(200, func() {
		buf = AppendFrame(buf[:0], m)
	}); got != 0 {
		t.Errorf("AppendFrame allocates %.1f objects/op, want 0", got)
	}
}

func TestAppendLinkDataAllocs(t *testing.T) {
	m := allocMsg()
	buf := make([]byte, 0, 1024)
	if got := testing.AllocsPerRun(200, func() {
		buf = AppendLinkData(buf[:0], 3, m)
	}); got != 0 {
		t.Errorf("AppendLinkData allocates %.1f objects/op, want 0", got)
	}
}

func TestReadLinkFrameAllocs(t *testing.T) {
	// The loop recycles each decoded message, mirroring the transport's
	// steady state (deliver, then PutMessage): the whole read path —
	// frame buffer and Message both pooled — performs zero allocations.
	frame := AppendLinkData(nil, 12, allocMsg())
	r := bytes.NewReader(frame)
	if got := testing.AllocsPerRun(200, func() {
		r.Reset(frame)
		_, _, m, err := ReadLinkFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		PutMessage(m)
	}); got != 0 {
		t.Errorf("ReadLinkFrame allocates %.1f objects/op, want 0", got)
	}
}
