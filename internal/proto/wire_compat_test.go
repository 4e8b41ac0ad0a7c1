package proto

import (
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"hierlock/internal/modes"
)

// goldenMessage is the fixed fixture whose byte-exact encoding is pinned
// below. Changing the hex constant is a wire format break.
func goldenMessage() *Message {
	return &Message{
		Kind: KindToken, Lock: 0x1122334455667788, From: 3, To: 9,
		TS: 4242, Seq: 7,
		Mode: modes.W, Owned: modes.IR,
		Frozen: modes.MakeSet(modes.IW, modes.W),
		Trace:  TraceID{Node: 5, Seq: 77},
		Epoch:  0x0a0b0c0d,
		Addr:   "198.51.100.7:9404",
		Req:    Request{Origin: 5, Mode: modes.W, TS: 70, Trace: TraceID{Node: 5, Seq: 77}},
		Queue: []Request{
			{Origin: 2, Mode: modes.R, TS: 80, Priority: 1, Trace: TraceID{Node: 2, Seq: 80}},
		},
		Vec: []uint64{1, 2},
	}
}

// The golden message as each wire version laid it out. Only v4 was ever
// emitted; the older three are what a peer of that vintage would have
// sent, kept as bytes (their encoders are gone) to show they are refused.
const (
	goldenFrameV4 = "0403112233445566778800000003000000090000000000001092" +
		"000000000000000705013000000005000000000000004d" + // mode/owned/frozen, header trace
		"0a0b0c0d" + // epoch
		"00113139382e35312e3130302e373a39343034" + // addr "198.51.100.7:9404"
		"000000050500000000000000004600000005000000000000004d" + // req + req trace
		"0000000100000002020100000000000000500000000200000000000000500000000200000000000000010000000000000002"
	goldenFrameV3 = "0303112233445566778800000003000000090000000000001092" +
		"000000000000000705013000000005000000000000004d" + // mode/owned/frozen, header trace
		"0a0b0c0d" + // epoch
		"000000050500000000000000004600000005000000000000004d" + // req + req trace
		"0000000100000002020100000000000000500000000200000000000000500000000200000000000000010000000000000002"
	goldenFrameV2 = "0203112233445566778800000003000000090000000000001092" +
		"000000000000000705013000000005000000000000004d" + // mode/owned/frozen, header trace
		"000000050500000000000000004600000005000000000000004d" + // req + req trace
		"0000000100000002020100000000000000500000000200000000000000500000000200000000000000010000000000000002"
	goldenFrameV1 = "0103112233445566778800000003000000090000000000001092" +
		"0000000000000007050130" +
		"0000000505000000000000000046" +
		"0000000100000002020100000000000000500000000200000000000000010000000000000002"
)

// TestWireGoldenFrames pins the byte-exact v4 encoding and checks that it
// is the one version the decoder reads: the v1, v2 and v3 layouts of the
// same message, and a v4 body under a future or garbage version byte,
// fail with ErrBadVersion — the version byte decides, not the length.
func TestWireGoldenFrames(t *testing.T) {
	m := goldenMessage()
	if got := hex.EncodeToString(AppendMessage(nil, m)); got != goldenFrameV4 {
		t.Errorf("v4 frame drifted:\n got: %s\nwant: %s", got, goldenFrameV4)
	}
	reversioned := func(v byte) string {
		raw, _ := hex.DecodeString(goldenFrameV4)
		raw[0] = v
		return hex.EncodeToString(raw)
	}
	for _, tc := range []struct {
		name  string
		frame string
		want  *Message // nil: refused with ErrBadVersion
	}{
		{"v4", goldenFrameV4, m},
		{"v3", goldenFrameV3, nil},
		{"v2", goldenFrameV2, nil},
		{"v1", goldenFrameV1, nil},
		{"v5 header on a v4 body", reversioned(5), nil},
		{"v3 header on a v4 body", reversioned(3), nil},
		{"v0", reversioned(0), nil},
		{"v255", reversioned(0xff), nil},
	} {
		raw, err := hex.DecodeString(tc.frame)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeMessage(raw)
		switch {
		case tc.want == nil:
			if !errors.Is(err, ErrBadVersion) {
				t.Errorf("%s: err = %v, want ErrBadVersion", tc.name, err)
			}
		case err != nil:
			t.Errorf("%s: decode golden: %v", tc.name, err)
		case !reflect.DeepEqual(dec, tc.want):
			t.Errorf("%s golden decode mismatch:\n got: %+v\nwant: %+v", tc.name, dec, tc.want)
		}
	}
}
