package proto

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"hierlock/internal/modes"
)

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("zero clock must read 0")
	}
	if c.Tick() != 1 || c.Tick() != 2 {
		t.Fatal("Tick must increment")
	}
	c.Witness(10)
	if c.Now() != 11 {
		t.Fatalf("Witness(10) then Now = %d, want 11", c.Now())
	}
	c.Witness(3) // older timestamp still advances by one
	if c.Now() != 12 {
		t.Fatalf("Witness(3) then Now = %d, want 12", c.Now())
	}
}

func TestRequestLess(t *testing.T) {
	a := Request{Origin: 1, TS: 5}
	b := Request{Origin: 2, TS: 5}
	c := Request{Origin: 0, TS: 6}
	if !a.Less(b) || b.Less(a) {
		t.Error("tie must break by origin")
	}
	if !a.Less(c) || c.Less(a) {
		t.Error("lower TS must order first")
	}
	if a.Less(a) {
		t.Error("irreflexive")
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindRequest: "request", KindGrant: "grant", KindToken: "token",
		KindRelease: "release", KindFreeze: "freeze", KindInvalid: "invalid",
		KindProbe: "probe", KindClaim: "claim", KindRecovered: "recovered",
		KindHeartbeat: "heartbeat",
		Kind(200):     "invalid",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

func sampleMessages() []*Message {
	return []*Message{
		{Kind: KindRequest, Lock: 7, From: 3, To: 4, TS: 99, Trace: TraceID{Node: 3, Seq: 98},
			Req: Request{Origin: 3, Mode: modes.W, TS: 98, Trace: TraceID{Node: 3, Seq: 98}}},
		{Kind: KindGrant, Lock: 1, From: 0, To: 5, TS: 1, Seq: 17,
			Mode: modes.R, Frozen: modes.MakeSet(modes.IW, modes.W),
			Trace: TraceID{Node: 5, Seq: ^uint64(0)}},
		{Kind: KindRelease, Lock: 3, From: 5, To: 0, TS: 2, Seq: ^uint64(0),
			Owned: modes.IR},
		{Kind: KindToken, Lock: 2, From: 9, To: 1, TS: 1234,
			Mode: modes.W, Owned: modes.IR, Epoch: 3,
			Queue: []Request{
				{Origin: 2, Mode: modes.IR, TS: 7, Trace: TraceID{Node: 2, Seq: 7}},
				{Origin: 8, Mode: modes.U, TS: 11, Priority: 2},
			},
			Vec: []uint64{0, 5, ^uint64(0), 17}},
		{Kind: KindProbe, Lock: 2, From: 0, To: 4, TS: 2000, Epoch: 4,
			Req: Request{Origin: 6}},
		{Kind: KindClaim, Lock: 2, From: 4, To: 0, TS: 2001, Epoch: 4,
			Owned: modes.R, Seq: 7},
		{Kind: KindRecovered, Lock: 2, From: 0, To: 4, TS: 2002, Epoch: 5,
			Req:   Request{Origin: 0},
			Queue: []Request{{Origin: 4, Mode: modes.R}}},
		{Kind: KindHeartbeat, From: 3, To: 4, TS: 2003},
		{Kind: KindJoin, From: 7, To: 0, TS: 3000, Addr: "10.0.0.7:8500"},
		{Kind: KindJoinAck, From: 0, To: 7, TS: 3001, Epoch: 5,
			Addr:  "0=h0:8500,1=h1:8500,7=h7:8500",
			Queue: []Request{{Origin: 0, TS: 42}}},
		{Kind: KindLeave, Lock: 3, From: 2, To: 0, TS: 3002, Epoch: 2,
			Vec: []uint64{1, 2, 3}},
		{Kind: KindLeaveAck, From: 0, To: 2, TS: 3003},
		{Kind: KindRelease, Lock: 0, From: 2, To: 0, TS: 5, Owned: modes.None},
		{Kind: KindFreeze, Lock: 88, From: 0, To: 6, TS: 42,
			Frozen: modes.MakeSet(modes.IR, modes.R, modes.U, modes.IW, modes.W)},
		{Kind: KindRequest, Lock: ^LockID(0), From: NoNode, To: NoNode, TS: ^Timestamp(0) - 1,
			Trace: TraceID{Node: NoNode, Seq: ^uint64(0)},
			Req:   Request{Origin: NoNode, Mode: modes.None, TS: 0, Trace: TraceID{Node: NoNode, Seq: ^uint64(0)}}},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for i, m := range sampleMessages() {
		buf := AppendMessage(nil, m)
		got, err := DecodeMessage(buf)
		if err != nil {
			t.Fatalf("msg %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("msg %d: round trip mismatch:\n in: %+v\nout: %+v", i, m, got)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	msgs := sampleMessages()
	for _, m := range msgs {
		buf = AppendFrame(buf, m)
	}
	for i, want := range msgs {
		n := 4 + int(binary.BigEndian.Uint32(buf))
		got, err := DecodeMessage(buf[4:n])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("frame %d mismatch", i)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Errorf("%d leftover bytes", len(buf))
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	valid := AppendMessage(nil, sampleMessages()[0])

	cases := map[string][]byte{
		"empty":       {},
		"short":       valid[:5],
		"bad version": append([]byte{99}, valid[1:]...),
		"bad kind":    func() []byte { b := bytes.Clone(valid); b[1] = 200; return b }(),
		"bad mode":    func() []byte { b := bytes.Clone(valid); b[34] = 77; return b }(),
		"bad owned":   func() []byte { b := bytes.Clone(valid); b[35] = 77; return b }(),
		"trailing":    append(bytes.Clone(valid), 0),
		"truncated":   valid[:len(valid)-2],
		// The request starts after the (empty) address field: 2 length
		// bytes past the fixed header; its mode byte is at offset 4.
		"bad req mode": func() []byte { b := bytes.Clone(valid); b[headerLen+2+4] = 99; return b }(),
	}
	for name, buf := range cases {
		if _, err := DecodeMessage(buf); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
}

// TestDecodeRejectsMixedVersions checks that the version byte, not the
// frame length, selects the layout: a current-version body under any
// other version byte fails fast with ErrBadVersion, and an older,
// shorter body (the v3 layout had no address field) under the current
// version byte is parsed as the current version and fails as malformed.
func TestDecodeRejectsMixedVersions(t *testing.T) {
	valid := AppendMessage(nil, goldenMessage())
	for _, v := range []byte{0, 1, 2, 3, 5, 6, 99, 0xff} {
		frame := append([]byte{v}, valid[1:]...)
		if _, err := DecodeMessage(frame); !errors.Is(err, ErrBadVersion) {
			t.Errorf("version %d: err = %v, want ErrBadVersion", v, err)
		}
	}
	for name, frame := range map[string]string{"v3": goldenFrameV3, "v2": goldenFrameV2, "v1": goldenFrameV1} {
		short, err := hex.DecodeString(frame)
		if err != nil {
			t.Fatal(err)
		}
		short[0] = wireVersion
		if _, err := DecodeMessage(short); !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrTooLarge) {
			t.Errorf("v4 header on a %s-length body: err = %v, want a malformed-frame error", name, err)
		}
	}
}

// TestRecoveryKindsVersionGated checks that the recovery/liveness kinds
// round-trip. With one wire version left, the only gate on a kind is the
// known range: the first kind past it is rejected.
func TestRecoveryKindsVersionGated(t *testing.T) {
	for _, k := range []Kind{KindProbe, KindClaim, KindRecovered, KindHeartbeat} {
		m := &Message{Kind: k, Lock: 4, From: 1, To: 2, TS: 9, Epoch: 3,
			Req: Request{Origin: 1}}
		got, err := DecodeMessage(AppendMessage(nil, m))
		if err != nil {
			t.Fatalf("kind %v: decode: %v", k, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("kind %v: round trip mismatch: %+v vs %+v", k, got, m)
		}
	}
	m := &Message{Kind: KindLeaveAck + 1, Lock: 4, From: 1, To: 2}
	if _, err := DecodeMessage(AppendMessage(nil, m)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("kind %d: err = %v, want ErrBadFrame", KindLeaveAck+1, err)
	}
}

// TestMembershipKindsVersionGated checks that the membership kinds
// round-trip, address intact, and that an oversized address is rejected
// by its length field, not allocated.
func TestMembershipKindsVersionGated(t *testing.T) {
	for _, k := range []Kind{KindJoin, KindJoinAck, KindLeave, KindLeaveAck} {
		m := &Message{Kind: k, Lock: 4, From: 7, To: 2, TS: 9, Epoch: 3,
			Addr: "10.1.2.3:8500", Req: Request{Origin: 7},
			Vec: []uint64{11, 42}}
		got, err := DecodeMessage(AppendMessage(nil, m))
		if err != nil {
			t.Fatalf("kind %v: decode: %v", k, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("kind %v: round trip mismatch: %+v vs %+v", k, got, m)
		}
	}
	raw := AppendMessage(nil, &Message{Kind: KindJoin, From: 1, To: 2})
	binary.BigEndian.PutUint16(raw[headerLen:], MaxAddrLen+1)
	if _, err := DecodeMessage(raw); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized address: err = %v, want ErrTooLarge", err)
	}
}

func TestTraceIDStringParse(t *testing.T) {
	cases := []TraceID{{}, {Node: 0, Seq: 1}, {Node: 3, Seq: 17}, {Node: -1, Seq: ^uint64(0)}}
	for _, id := range cases {
		got, err := ParseTraceID(id.String())
		if err != nil || got != id {
			t.Errorf("ParseTraceID(%q) = %v, %v; want %v", id.String(), got, err, id)
		}
	}
	if (TraceID{}).String() != "-" {
		t.Error("zero TraceID must render as -")
	}
	if (TraceID{Node: 3, Seq: 17}).String() != "n3.17" {
		t.Errorf("String = %q", TraceID{Node: 3, Seq: 17}.String())
	}
	for _, bad := range []string{"x3.17", "n3", "n.17", "nA.17", "n3.B"} {
		if _, err := ParseTraceID(bad); err == nil {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, _, _, err := ReadLinkFrame(&buf); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize frame: err = %v, want ErrTooLarge", err)
	}
}

func TestDecodeRejectsHugeQueue(t *testing.T) {
	m := sampleMessages()[0]
	buf := AppendMessage(nil, m)
	// Patch the queue length field (last 4 bytes before queue entries; this
	// message has an empty queue so it is the final 4 bytes).
	buf[len(buf)-4] = 0xff
	buf[len(buf)-3] = 0xff
	buf[len(buf)-2] = 0xff
	buf[len(buf)-1] = 0xff
	if _, err := DecodeMessage(buf); err == nil {
		t.Error("huge queue length accepted")
	}
}

// TestQuickCodec fuzzes round-tripping of randomly generated messages.
func TestQuickCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randMode := func() modes.Mode { return modes.Mode(rng.Intn(6)) }
	f := func(lock uint64, from, to int32, ts uint64, frozen uint8, qn uint8) bool {
		m := &Message{
			Kind:   Kind(1 + rng.Intn(5)),
			Lock:   LockID(lock),
			From:   NodeID(from),
			To:     NodeID(to),
			TS:     Timestamp(ts),
			Mode:   randMode(),
			Owned:  randMode(),
			Frozen: modes.Set(frozen & 0x3e), // only bits for IR..W
			Trace:  TraceID{Node: NodeID(from), Seq: rng.Uint64()},
			Req:    Request{Origin: NodeID(from), Mode: randMode(), TS: Timestamp(ts)},
		}
		for i := 0; i < int(qn%8); i++ {
			m.Queue = append(m.Queue, Request{
				Origin: NodeID(rng.Int31()),
				Mode:   randMode(),
				TS:     Timestamp(rng.Uint64()),
				Trace:  TraceID{Node: NodeID(rng.Int31()), Seq: rng.Uint64()},
			})
		}
		got, err := DecodeMessage(AppendMessage(nil, m))
		return err == nil && reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeMessage(b *testing.B) {
	m := &Message{
		Kind: KindToken, Lock: 99, From: 3, To: 7, TS: 123456, Seq: 42,
		Mode: modes.W, Owned: modes.IR, Frozen: modes.MakeSet(modes.IW),
		Queue: []Request{
			{Origin: 1, Mode: modes.R, TS: 10},
			{Origin: 2, Mode: modes.U, TS: 11, Priority: 3},
		},
	}
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendMessage(buf[:0], m)
	}
}

func BenchmarkDecodeMessage(b *testing.B) {
	m := &Message{
		Kind: KindToken, Lock: 99, From: 3, To: 7, TS: 123456, Seq: 42,
		Mode: modes.W, Owned: modes.IR, Frozen: modes.MakeSet(modes.IW),
		Queue: []Request{
			{Origin: 1, Mode: modes.R, TS: 10},
			{Origin: 2, Mode: modes.U, TS: 11, Priority: 3},
		},
	}
	buf := AppendMessage(nil, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeMessage(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// Message's field order packs the sub-word scalars together to stay at
// 160 bytes, one malloc size class below a naive layout: the simulator
// allocates one per delivery and the live path copies them per hop, so
// an accidental 16-byte growth shows up as a several-percent hit on
// message-heavy protocols. If a new field genuinely needs the space,
// update this bound together with the layout note on the struct.
func TestMessageStaysInSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Message{}); got > 160 {
		t.Fatalf("proto.Message is %d bytes, budget 160: repack the field order (see the layout comment) or raise the budget deliberately", got)
	}
}
