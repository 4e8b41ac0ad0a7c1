package trace

import (
	"encoding/json"
	"time"

	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

// entryJSON is the wire form of an Entry: numeric codes for lossless
// round-trips plus human-readable names for direct consumption (jq,
// dashboards).
type entryJSON struct {
	Seq       uint64 `json:"seq"`
	AtUS      int64  `json:"at_us"`
	Op        string `json:"op"`
	OpCode    uint8  `json:"op_code"`
	Node      int32  `json:"node"`
	Lock      uint64 `json:"lock"`
	Mode      string `json:"mode"`
	ModeCode  uint8  `json:"mode_code"`
	Kind      string `json:"kind,omitempty"`
	KindCode  uint8  `json:"kind_code"`
	From      int32  `json:"from"`
	To        int32  `json:"to"`
	Trace     string `json:"trace,omitempty"`
	TraceNode int32  `json:"trace_node,omitempty"`
	TraceSeq  uint64 `json:"trace_seq,omitempty"`
}

// MarshalJSON renders the entry with both numeric codes and names.
func (e Entry) MarshalJSON() ([]byte, error) {
	j := entryJSON{
		Seq:      e.Seq,
		AtUS:     e.At.Microseconds(),
		Op:       e.Op.String(),
		OpCode:   uint8(e.Op),
		Node:     int32(e.Node),
		Lock:     uint64(e.Lock),
		Mode:     e.Mode.String(),
		ModeCode: uint8(e.Mode),
		KindCode: uint8(e.Kind),
		From:     int32(e.From),
		To:       int32(e.To),
	}
	if e.Kind != proto.KindInvalid {
		j.Kind = e.Kind.String()
	}
	if !e.Trace.IsZero() {
		j.Trace = e.Trace.String()
		j.TraceNode = int32(e.Trace.Node)
		j.TraceSeq = e.Trace.Seq
	}
	return json.Marshal(j)
}

// UnmarshalJSON restores an entry from its wire form (numeric codes are
// authoritative; names are ignored).
func (e *Entry) UnmarshalJSON(data []byte) error {
	var j entryJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*e = Entry{
		Seq:   j.Seq,
		At:    time.Duration(j.AtUS) * time.Microsecond,
		Op:    Op(j.OpCode),
		Node:  proto.NodeID(j.Node),
		Lock:  proto.LockID(j.Lock),
		Mode:  modes.Mode(j.ModeCode),
		Kind:  proto.Kind(j.KindCode),
		From:  proto.NodeID(j.From),
		To:    proto.NodeID(j.To),
		Trace: proto.TraceID{Node: proto.NodeID(j.TraceNode), Seq: j.TraceSeq},
	}
	return nil
}

// Dump is the JSON document served by the /debug/trace endpoint and
// consumed by `lockctl trace`. Node identifies the reporting node
// (NoNode for a recorder not bound to a single node, e.g. the
// simulator's cluster-wide ring).
type Dump struct {
	Node    proto.NodeID `json:"node"`
	Enabled bool         `json:"enabled"`
	Dropped uint64       `json:"dropped"`
	Entries []Entry      `json:"entries"`
}

// ClusterDump bundles the trace buffers of several nodes, as served by
// /debug/trace in peer-merge mode and consumed by `lockctl trace
// --cluster`. Errors records peers whose buffer could not be fetched.
type ClusterDump struct {
	Nodes  []Dump            `json:"nodes"`
	Errors map[string]string `json:"errors,omitempty"`
}

// Entries concatenates all per-node buffers (per-node order preserved).
func (c *ClusterDump) Entries() []Entry {
	var out []Entry
	for _, d := range c.Nodes {
		out = append(out, d.Entries...)
	}
	return out
}

// DumpLast captures the most recent n retained entries (all of them if
// n <= 0 or exceeds the retention) as a Dump. Nil-safe. The caller owns
// Node (DumpLast reports NoNode).
func (r *Recorder) DumpLast(n int) Dump {
	entries := r.Entries()
	if n > 0 && n < len(entries) {
		entries = entries[len(entries)-n:]
	}
	return Dump{Node: proto.NoNode, Enabled: r.Enabled(), Dropped: r.Dropped(), Entries: entries}
}
