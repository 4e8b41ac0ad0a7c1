package proto

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeMessage feeds arbitrary bytes to the wire decoder: it must
// never panic, it accepts the current version only, and everything it
// accepts must re-encode to the identical byte string (the codec is
// canonical) and decode again to the same message.
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range sampleMessages() {
		frame := AppendMessage(nil, m)
		f.Add(frame)
		// The same body under each retired version byte: refused whatever
		// follows.
		for _, v := range []byte{1, 2, 3} {
			old := bytes.Clone(frame)
			old[0] = v
			f.Add(old)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{2})
	f.Add([]byte{3})
	f.Add([]byte{4})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// Corrupt-trace-field and corrupt-epoch corpora: current-version
	// frames with the trace bytes (header and request) or the epoch bytes
	// clobbered — all byte values are legal trace IDs and epochs, so these
	// must decode, just to surprising values.
	base := AppendMessage(nil, sampleMessages()[0])
	for _, off := range []int{traceOff, traceOff + 4, epochOff, epochOff + 3, headerLen + reqTraceOff} {
		for _, b := range []byte{0x00, 0x7f, 0x80, 0xff} {
			c := bytes.Clone(base)
			c[off] = b
			f.Add(c)
		}
	}
	// Truncations that slice through the trailing trace/epoch fields.
	for _, cut := range []int{1, epochLen, traceLen - 1, traceLen, traceLen + epochLen + 1} {
		f.Add(bytes.Clone(base[:len(base)-cut]))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		if data[0] != wireVersion {
			t.Fatalf("accepted a version-%d frame: %x", data[0], data)
		}
		re := AppendMessage(nil, m)
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in: %x\nout: %x", data, re)
		}
		m2, err := DecodeMessage(re)
		if err != nil || !reflect.DeepEqual(m, m2) {
			t.Fatalf("re-decode mismatch: %v / %+v vs %+v", err, m, m2)
		}
	})
}
