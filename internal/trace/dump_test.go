package trace_test

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"hierlock/internal/modes"
	"hierlock/internal/proto"
	"hierlock/internal/trace"
)

// acquireGrantTrace is a canonical remote acquisition on lock 7, as one
// ring shared by the nodes holds it: node 2 asks, node 0 forwards the
// token, node 2 is granted.
func acquireGrantTrace() []trace.Entry {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tr := proto.TraceID{Node: 2, Seq: 1}
	return []trace.Entry{
		{At: ms(0), Op: trace.OpAcquire, Node: 2, Lock: 7, Mode: modes.W, Trace: tr},
		{At: ms(1), Op: trace.OpSend, Node: 2, Lock: 7, Mode: modes.W, Kind: proto.KindRequest, From: 2, To: 0, Trace: tr},
		{At: ms(150), Op: trace.OpDeliver, Node: 0, Lock: 7, Mode: modes.W, Kind: proto.KindRequest, From: 2, To: 0, Trace: tr},
		{At: ms(151), Op: trace.OpSend, Node: 0, Lock: 7, Mode: modes.W, Kind: proto.KindToken, From: 0, To: 2, Trace: tr},
		{At: ms(300), Op: trace.OpDeliver, Node: 2, Lock: 7, Mode: modes.W, Kind: proto.KindToken, From: 0, To: 2, Trace: tr},
		{At: ms(301), Op: trace.OpGranted, Node: 2, Lock: 7, Mode: modes.W, Trace: tr},
	}
}

// oneBuffer assembles the causal paths of a single trace buffer, as
// `lockctl trace` does without --cluster.
func oneBuffer(entries []trace.Entry) []*trace.CausalPath {
	return trace.AssembleCausal([]trace.Dump{{Node: proto.NoNode, Entries: entries}})
}

// hop is a message hop's kind and endpoints.
type hop struct {
	kind     proto.Kind
	from, to proto.NodeID
}

// hopsOf lists p's hops of kind (all kinds when kind is KindInvalid).
func hopsOf(p *trace.CausalPath, kind proto.Kind) []hop {
	var out []hop
	for _, h := range p.Hops() {
		if kind == proto.KindInvalid || h.Kind == kind {
			out = append(out, hop{h.Kind, h.From, h.To})
		}
	}
	return out
}

// TestAssembleAcquireGrant: one buffer holding a remote acquisition
// assembles into one complete path, its request and its token hop.
func TestAssembleAcquireGrant(t *testing.T) {
	paths := oneBuffer(acquireGrantTrace())
	if len(paths) != 1 {
		t.Fatalf("paths = %d, want 1", len(paths))
	}
	p := paths[0]
	if !p.Complete || p.Origin != 2 || p.Lock != 7 || p.Mode != modes.W {
		t.Fatalf("path: %+v", p)
	}
	if d := p.End - p.Start; d != 301*time.Millisecond {
		t.Fatalf("duration = %v", d)
	}
	if len(p.Steps) != 6 {
		t.Fatalf("steps = %d, want 6", len(p.Steps))
	}
	want := []hop{{proto.KindRequest, 2, 0}, {proto.KindToken, 0, 2}}
	if got := hopsOf(p, proto.KindInvalid); !slices.Equal(got, want) {
		t.Fatalf("hops = %v, want %v", got, want)
	}
	out := p.Format(true)
	if !strings.Contains(out, "completed in ~301ms") || !strings.Contains(out, "token   0 → 2") {
		t.Fatalf("format:\n%s", out)
	}
	if strings.Count(out, "\n") != 1+2+6 {
		t.Fatalf("verbose format must list the hops and every step:\n%s", out)
	}
}

// TestAssembleIncompleteAndOrphan: a request still waiting at capture
// time is a path in flight, and a grant whose acquire the ring evicted is
// a complete path of one step.
func TestAssembleIncompleteAndOrphan(t *testing.T) {
	entries := []trace.Entry{
		{At: 0, Op: trace.OpAcquire, Node: 1, Lock: 3, Mode: modes.R, Trace: proto.TraceID{Node: 1, Seq: 5}},
		{At: time.Second, Op: trace.OpGranted, Node: 4, Lock: 9, Mode: modes.U, Trace: proto.TraceID{Node: 4, Seq: 8}},
	}
	paths := oneBuffer(entries)
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(paths))
	}
	if paths[0].Complete {
		t.Fatal("waiting request must be incomplete")
	}
	if out := paths[0].Format(false); !strings.Contains(out, "in flight") {
		t.Fatalf("format: %s", out)
	}
	if p := paths[1]; !p.Complete || p.Origin != 4 || len(p.Steps) != 1 {
		t.Fatalf("orphan grant path: %+v", p)
	}
}

// TestAssembleConcurrentRequesters: two nodes race for lock 5 in one
// buffer. Each grant completes its own request's path, and a token hop
// belongs to the operation whose trace it carries.
func TestAssembleConcurrentRequesters(t *testing.T) {
	trA, trB := proto.TraceID{Node: 1, Seq: 10}, proto.TraceID{Node: 2, Seq: 11}
	entries := []trace.Entry{
		{At: 0, Op: trace.OpAcquire, Node: 1, Lock: 5, Mode: modes.W, Trace: trA},
		{At: 1, Op: trace.OpAcquire, Node: 2, Lock: 5, Mode: modes.W, Trace: trB},
		{At: 2, Op: trace.OpSend, Node: 0, Lock: 5, Kind: proto.KindToken, From: 0, To: 1, Trace: trA},
		{At: 3, Op: trace.OpGranted, Node: 1, Lock: 5, Mode: modes.W, Trace: trA},
		{At: 4, Op: trace.OpSend, Node: 1, Lock: 5, Kind: proto.KindToken, From: 1, To: 2, Trace: trB},
		{At: 5, Op: trace.OpGranted, Node: 2, Lock: 5, Mode: modes.W, Trace: trB},
	}
	paths := oneBuffer(entries)
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(paths))
	}
	for i, want := range []struct {
		tr  proto.TraceID
		end time.Duration
		hop hop
	}{{trA, 3, hop{proto.KindToken, 0, 1}}, {trB, 5, hop{proto.KindToken, 1, 2}}} {
		p := paths[i]
		if p.Trace != want.tr || !p.Complete || p.End != want.end {
			t.Fatalf("path %d: %+v", i, p)
		}
		if got := hopsOf(p, proto.KindToken); !slices.Equal(got, []hop{want.hop}) {
			t.Fatalf("path %d token hops = %v, want %v", i, got, want.hop)
		}
	}
}

// TestTokenPathDedup: an operation's token path is its token hops. The
// send and the deliver of one hop count once, and a requester's own
// buffer, which holds only the deliver, still shows the hop.
func TestTokenPathDedup(t *testing.T) {
	tr := proto.TraceID{Node: 2, Seq: 1}
	p := oneBuffer([]trace.Entry{
		{Op: trace.OpSend, Kind: proto.KindToken, From: 0, To: 1, Trace: tr},
		{Op: trace.OpDeliver, Kind: proto.KindToken, From: 0, To: 1, Trace: tr},
		{Op: trace.OpSend, Kind: proto.KindToken, From: 1, To: 2, Trace: tr},
		{Op: trace.OpDeliver, Kind: proto.KindToken, From: 1, To: 2, Trace: tr},
	})[0]
	if got, want := hopsOf(p, proto.KindToken), []hop{{proto.KindToken, 0, 1}, {proto.KindToken, 1, 2}}; !slices.Equal(got, want) {
		t.Fatalf("token hops = %v, want %v", got, want)
	}
	p = oneBuffer([]trace.Entry{
		{Op: trace.OpDeliver, Kind: proto.KindToken, From: 0, To: 2, Trace: tr},
	})[0]
	if got, want := hopsOf(p, proto.KindToken), []hop{{proto.KindToken, 0, 2}}; !slices.Equal(got, want) {
		t.Fatalf("deliver-only token hops = %v, want %v", got, want)
	}
}

func TestEntryJSONRoundTrip(t *testing.T) {
	in := trace.Entry{
		Seq: 42, At: 1500 * time.Microsecond, Op: trace.OpSend,
		Node: 1, Lock: 7, Mode: modes.IW, Kind: proto.KindToken, From: 1, To: 3,
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	// Human-readable names ride along.
	for _, want := range []string{`"op":"send"`, `"kind":"token"`, `"mode":"IW"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("wire form missing %s: %s", want, data)
		}
	}
	var out trace.Entry
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

// TestEntrySize pins an Entry at 88 bytes: the resident pair copies one
// into its stripe's buffer, and the node events ride in its fields.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(trace.Entry{}); n != 88 {
		t.Fatalf("trace.Entry is %d bytes, want 88", n)
	}
}

// TestSlotSize pins what the ring keeps of an entry at 48 bytes: no Seq
// (its position implies it) and none of the three staging words.
func TestSlotSize(t *testing.T) {
	if trace.SlotSize != 48 {
		t.Fatalf("a ring slot is %d bytes, want 48", trace.SlotSize)
	}
}

// TestNodeEventsRoundTripAndJoinNoPath: the node events keep their values
// (epoch, count, duration) through the JSON dump, so merged dumps carry
// them, and the causal assembler ignores them, a lost wait's included.
func TestNodeEventsRoundTripAndJoinNoPath(t *testing.T) {
	tr := proto.TraceID{Node: 1, Seq: 7}
	in := []trace.Entry{
		{Seq: 1, At: time.Millisecond, Op: trace.OpRoundStart, Node: 1, Lock: 9, Epoch: 3},
		{Seq: 2, At: 2 * time.Millisecond, Op: trace.OpRoundDone, Node: 1, Lock: 9, Epoch: 3, Trace: proto.TraceID{Seq: uint64(40 * time.Millisecond)}},
		{Seq: 3, At: 3 * time.Millisecond, Op: trace.OpFsyncStall, Node: 1, Trace: proto.TraceID{Seq: uint64(60 * time.Millisecond)}},
		{Seq: 4, At: 4 * time.Millisecond, Op: trace.OpEvict, Node: 1, Epoch: 12},
		{Seq: 5, At: 5 * time.Millisecond, Op: trace.OpAcquire, Node: 1, Lock: 9, Mode: modes.W, Trace: tr},
		{Seq: 6, At: 6 * time.Millisecond, Op: trace.OpLockLost, Node: 1, Lock: 9, Mode: modes.W, Trace: tr},
	}
	data, err := json.Marshal(trace.Dump{Node: 1, Entries: in})
	if err != nil {
		t.Fatal(err)
	}
	var out trace.Dump
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(out.Entries, in) {
		t.Fatalf("round trip: got %+v, want %+v", out.Entries, in)
	}
	paths := trace.AssembleCausal([]trace.Dump{out})
	if len(paths) != 1 || paths[0].Trace != tr || len(paths[0].Steps) != 1 || paths[0].Steps[0].Op != trace.OpAcquire {
		t.Fatalf("paths = %+v, want the acquire's alone", paths)
	}
}

func TestDumpLast(t *testing.T) {
	r := trace.New(16)
	for i := 0; i < 10; i++ {
		r.Record(trace.Entry{Op: trace.OpSend, Node: proto.NodeID(i)})
	}
	d := r.DumpLast(3)
	if !d.Enabled || len(d.Entries) != 3 || d.Entries[0].Node != 7 {
		t.Fatalf("dump: %+v", d)
	}
	if len(r.DumpLast(0).Entries) != 10 || len(r.DumpLast(100).Entries) != 10 {
		t.Fatal("n<=0 or oversized n must return everything")
	}

	// The dump round-trips through JSON (what lockctl consumes).
	data, err := json.Marshal(r.DumpLast(0))
	if err != nil {
		t.Fatal(err)
	}
	var back trace.Dump
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != 10 || back.Entries[9].Node != 9 {
		t.Fatalf("dump round trip: %+v", back)
	}

	var nilRec *trace.Recorder
	nd := nilRec.DumpLast(5)
	if nd.Enabled || nd.Entries != nil {
		t.Fatalf("nil dump: %+v", nd)
	}
}
