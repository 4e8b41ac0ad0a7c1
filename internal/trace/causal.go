package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hierlock/internal/modes"
	"hierlock/internal/proto"
)

// CausalPath is one client operation's lifecycle, rebuilt by merging the
// trace buffers at hand — one node's, or every node's of a cluster — on
// the operation's trace ID: the acquire at the origin, every request hop
// toward a granter, freezes the operation triggered, and the grant or
// token travel back — the live analogue of Figure 7's per-message-type
// breakdown, but for a single request. Its token path is its token hops.
type CausalPath struct {
	Trace  proto.TraceID
	Lock   proto.LockID
	Mode   modes.Mode   // requested (or finally granted) mode
	Origin proto.NodeID // the node that minted the trace ID
	// Start/End are the earliest and latest entry times. Times from
	// different nodes are only comparable when their recorders share a
	// clock (the simulator) or the processes started together, so treat
	// cross-node durations as approximate.
	Start, End time.Duration
	// Complete reports whether an OpGranted (or OpRelease, for release
	// traces) was observed at the origin.
	Complete bool
	// Steps holds the merged entries in causal order: within one node's
	// buffer recording order is kept, and a delivery is never placed
	// before its matching send when both were retained.
	Steps []Entry
	// Nodes lists the distinct nodes that recorded steps, in order of
	// first appearance.
	Nodes []proto.NodeID
}

// Hops returns the operation's message hops in causal order, collapsing
// each send/deliver pair into one hop.
func (p *CausalPath) Hops() []Entry {
	var hops []Entry
	type link struct {
		kind     proto.Kind
		from, to proto.NodeID
	}
	seen := make(map[link]int)
	emitted := make(map[link]int)
	for _, e := range p.Steps {
		switch e.Op {
		case OpSend:
			hops = append(hops, e)
			emitted[link{e.Kind, e.From, e.To}]++
		case OpDeliver:
			l := link{e.Kind, e.From, e.To}
			if seen[l] < emitted[l] {
				seen[l]++ // the deliver half of an already-emitted send
				continue
			}
			// Orphan delivery (its send was evicted or that peer's buffer
			// is missing): still a hop.
			hops = append(hops, e)
			emitted[l]++
			seen[l]++
		}
	}
	return hops
}

// ForwardedHops counts request hops sent by a node other than the
// origin — i.e. how many times the request was forwarded onward.
func (p *CausalPath) ForwardedHops() int {
	n := 0
	for _, h := range p.Hops() {
		if h.Kind == proto.KindRequest && h.From != p.Origin {
			n++
		}
	}
	return n
}

// Format renders the path for humans: a summary line, the hop chain, and
// (verbose) every merged step prefixed with the recording node.
func (p *CausalPath) Format(verbose bool) string {
	var b strings.Builder
	status := "in flight"
	if p.Complete {
		status = fmt.Sprintf("completed in ~%v", p.End-p.Start)
	}
	nodes := make([]string, len(p.Nodes))
	for i, n := range p.Nodes {
		nodes[i] = fmt.Sprintf("%d", n)
	}
	fmt.Fprintf(&b, "trace %s lock=%d mode=%v origin=%d: %s (%d steps on %s)\n",
		p.Trace, p.Lock, p.Mode, p.Origin, status, len(p.Steps), strings.Join(nodes, ","))
	for _, h := range p.Hops() {
		note := ""
		if h.Kind == proto.KindRequest && h.From != p.Origin {
			note = "  (forwarded)"
		}
		fmt.Fprintf(&b, "  %-7s %d → %d%s\n", h.Kind, h.From, h.To, note)
	}
	if verbose {
		for _, e := range p.Steps {
			fmt.Fprintf(&b, "  [node %d] %s\n", e.Node, e.String())
		}
	}
	return b.String()
}

// AssembleCausal merges per-node trace dumps into one CausalPath per
// trace ID. Dumps sharing a non-NoNode Node are deduplicated (first
// wins), so fetching a peer twice is harmless. Entries without a trace
// ID are ignored. Paths are ordered by (origin node, origin sequence)
// for deterministic output.
func AssembleCausal(dumps []Dump) []*CausalPath {
	seenNode := make(map[proto.NodeID]bool)
	perTrace := make(map[proto.TraceID][][]Entry)
	for _, d := range dumps {
		if d.Node != proto.NoNode {
			if seenNode[d.Node] {
				continue
			}
			seenNode[d.Node] = true
		}
		streams := make(map[proto.TraceID][]Entry)
		for _, e := range d.Entries {
			if e.Trace.IsZero() {
				continue
			}
			streams[e.Trace] = append(streams[e.Trace], e)
		}
		for id, s := range streams {
			perTrace[id] = append(perTrace[id], s)
		}
	}

	ids := make([]proto.TraceID, 0, len(perTrace))
	for id := range perTrace {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Node != ids[j].Node {
			return ids[i].Node < ids[j].Node
		}
		return ids[i].Seq < ids[j].Seq
	})

	paths := make([]*CausalPath, 0, len(ids))
	for _, id := range ids {
		paths = append(paths, assembleOne(id, perTrace[id]))
	}
	return paths
}

// assembleOne causally merges one trace's per-node streams. The merge is
// a constrained topological interleave: per-stream order is preserved,
// and a delivery waits for its matching send (counted per (kind, from,
// to) link) when any stream can still supply one. Eligible heads are
// taken in (At, Node) order; if nothing is eligible (the send was
// evicted or its node's buffer is absent) the earliest head is taken
// anyway, so partial captures still assemble.
func assembleOne(id proto.TraceID, streams [][]Entry) *CausalPath {
	type link struct {
		kind     proto.Kind
		from, to proto.NodeID
	}
	sendsAvail := make(map[link]int) // sends not yet emitted, by link
	for _, s := range streams {
		for _, e := range s {
			if e.Op == OpSend {
				sendsAvail[link{e.Kind, e.From, e.To}]++
			}
		}
	}
	sendsEmitted := make(map[link]int)
	deliversEmitted := make(map[link]int)

	idx := make([]int, len(streams))
	p := &CausalPath{Trace: id, Origin: id.Node}
	var nodeSeen = make(map[proto.NodeID]bool)
	total := 0
	for _, s := range streams {
		total += len(s)
	}

	for len(p.Steps) < total {
		best := -1
		bestBlocked := -1
		for i, s := range streams {
			if idx[i] >= len(s) {
				continue
			}
			e := s[idx[i]]
			blocked := false
			if e.Op == OpDeliver {
				l := link{e.Kind, e.From, e.To}
				// This delivery needs one more send than already emitted;
				// block only if some stream can still produce it.
				if sendsEmitted[l] <= deliversEmitted[l] && sendsAvail[l] > 0 {
					blocked = true
				}
			}
			better := func(cur int) bool {
				if cur < 0 {
					return true
				}
				c := streams[cur][idx[cur]]
				if e.At != c.At {
					return e.At < c.At
				}
				return e.Node < c.Node
			}
			if blocked {
				if better(bestBlocked) {
					bestBlocked = i
				}
			} else if better(best) {
				best = i
			}
		}
		if best < 0 {
			best = bestBlocked // partial capture: emit anyway
		}
		if best < 0 {
			break
		}
		e := streams[best][idx[best]]
		idx[best]++
		switch e.Op {
		case OpSend:
			sendsEmitted[link{e.Kind, e.From, e.To}]++
			sendsAvail[link{e.Kind, e.From, e.To}]--
		case OpDeliver:
			deliversEmitted[link{e.Kind, e.From, e.To}]++
		}
		if len(p.Steps) == 0 || e.At < p.Start {
			p.Start = e.At
		}
		if e.At > p.End {
			p.End = e.At
		}
		if !nodeSeen[e.Node] {
			nodeSeen[e.Node] = true
			p.Nodes = append(p.Nodes, e.Node)
		}
		switch e.Op {
		case OpAcquire:
			p.Mode = e.Mode
			p.Lock = e.Lock
		case OpGranted:
			p.Mode = e.Mode // authoritative (upgrades grant W)
			if e.Node == p.Origin {
				p.Complete = true
			}
		case OpRelease:
			if e.Node == p.Origin {
				p.Complete = true
			}
		}
		if p.Lock == 0 && e.Lock != 0 {
			p.Lock = e.Lock
		}
		p.Steps = append(p.Steps, e)
	}
	return p
}
