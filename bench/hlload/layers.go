package main

import (
	"bufio"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hierlock"
	"hierlock/internal/metrics"
)

// snapshot is the per-layer counters of a cluster at one instant, read
// only through the layers' public accessors: Member.Stats, MessagesSent,
// JournalStats, LinkCounters, each node's Prometheus text and the Go
// runtime's MemStats.
type snapshot struct {
	msgs        map[string]uint64 // protocol messages sent by kind, all nodes
	acquires    uint64
	sharedJoins uint64
	journal     hierlock.JournalStats // summed over nodes
	retransmits uint64
	prom        []promScrape // one per node; nil without telemetry
	mem         runtime.MemStats
}

// promScrape maps a series ("name" or `name{labels}`) to its value.
type promScrape map[string]float64

// parseProm reads Prometheus text exposition 0.0.4 as the registry
// writes it: comment lines skipped, the value after the last space.
func parseProm(text string) promScrape {
	out := make(promScrape)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sum adds up every series of family name whose label text contains all
// of labels (e.g. `outcome="remote"`).
func (p promScrape) sum(name string, labels ...string) float64 {
	var total float64
series:
	for k, v := range p {
		fam, rest, _ := strings.Cut(k, "{")
		if fam != name {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				continue series
			}
		}
		total += v
	}
	return total
}

func (c *cluster) snapshot() snapshot {
	s := snapshot{msgs: make(map[string]uint64)}
	for _, n := range c.nodes {
		for k, v := range n.m.MessagesSent() {
			s.msgs[k] += v
		}
		st := n.m.Stats()
		s.acquires += st.Acquires
		s.sharedJoins += st.SharedJoins
		if js, ok := n.m.JournalStats(); ok {
			s.journal.Records += js.Records
			s.journal.Fsyncs += js.Fsyncs
			s.journal.FsyncTime += js.FsyncTime
			s.journal.Snapshots += js.Snapshots
		}
		s.retransmits += n.m.LinkCounters().Retransmits
		if n.reg != nil {
			var b strings.Builder
			_ = n.reg.WritePrometheus(&b) // a strings.Builder cannot fail
			s.prom = append(s.prom, parseProm(b.String()))
		}
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// layerDelta is what the layers did over the measured window.
type layerDelta struct {
	msgs, tokenMsgs       uint64
	acquires, sharedJoins uint64
	journalRecords        uint64
	fsyncs, snapshots     uint64
	fsyncTime             time.Duration
	retransmits           uint64
	mallocs, allocBytes   uint64
	gcPause               time.Duration
	queueHighWater        float64 // worst per-peer outbound queue so far (a high-water gauge, not a delta)

	// From the Prometheus text, summed over nodes.
	tokenHopsSum, tokenHopsCount float64
	grantsRemote, grantsAll      float64
	framesSent, bytesSent        float64
	leaderAcquires, handoffs     float64
	traceRecords                 float64
}

// promDelta sums, over nodes, the growth of the matching series.
func promDelta(after, before []promScrape, name string, labels ...string) float64 {
	var d float64
	for i := range after {
		d += after[i].sum(name, labels...) - before[i].sum(name, labels...)
	}
	return d
}

// since returns the growth of every counter from before to s.
func (s snapshot) since(before snapshot) *layerDelta {
	d := &layerDelta{
		tokenMsgs:      s.msgs["token"] - before.msgs["token"],
		acquires:       s.acquires - before.acquires,
		sharedJoins:    s.sharedJoins - before.sharedJoins,
		journalRecords: s.journal.Records - before.journal.Records,
		fsyncs:         s.journal.Fsyncs - before.journal.Fsyncs,
		snapshots:      s.journal.Snapshots - before.journal.Snapshots,
		fsyncTime:      s.journal.FsyncTime - before.journal.FsyncTime,
		retransmits:    s.retransmits - before.retransmits,
		mallocs:        s.mem.Mallocs - before.mem.Mallocs,
		allocBytes:     s.mem.TotalAlloc - before.mem.TotalAlloc,
		gcPause:        time.Duration(s.mem.PauseTotalNs - before.mem.PauseTotalNs),
	}
	for k, v := range s.msgs {
		d.msgs += v - before.msgs[k]
	}
	delta := func(name string, labels ...string) float64 {
		return promDelta(s.prom, before.prom, name, labels...)
	}
	d.tokenHopsSum = delta(metrics.MetricTokenHops + "_sum")
	d.tokenHopsCount = delta(metrics.MetricTokenHops + "_count")
	d.grantsRemote = delta(metrics.MetricOpLatency+"_count", `outcome="remote"`)
	d.grantsAll = delta(metrics.MetricOpLatency + "_count")
	d.framesSent = delta(metrics.MetricTransportFrames, `direction="sent"`)
	d.bytesSent = delta(metrics.MetricTransportBytes, `direction="sent"`)
	d.leaderAcquires = delta(metrics.MetricAdmissionLeaderAcquires)
	d.handoffs = delta(metrics.MetricAdmissionHandoffs)
	d.traceRecords = delta(metrics.MetricAuditEntries)
	for _, p := range s.prom {
		for k, v := range p {
			if strings.HasPrefix(k, metrics.MetricTransportQueueHighWater+"{") && v > d.queueHighWater {
				d.queueHighWater = v
			}
		}
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metrics renders the delta as the per-layer counter metrics, per
// completed op where that is the natural base.
func (d *layerDelta) metrics(ops uint64, out map[string]float64) {
	n := float64(ops)
	out["member.msgs_per_op"] = ratio(float64(d.msgs), n)
	out["member.token_transfers_per_op"] = ratio(float64(d.tokenMsgs), n)
	out["hlock.token_hops_mean"] = ratio(d.tokenHopsSum, d.tokenHopsCount)
	out["member.shared_join_ratio"] = ratio(float64(d.sharedJoins), float64(d.acquires))
	out["member.remote_ratio"] = ratio(d.grantsRemote, d.grantsAll)
	out["journal.records_per_op"] = ratio(float64(d.journalRecords), n)
	out["journal.fsyncs_per_op"] = ratio(float64(d.fsyncs), n)
	out["journal.fsync_mean_us"] = ratio(float64(d.fsyncTime.Microseconds()), float64(d.fsyncs))
	out["journal.snapshots_per_kop"] = ratio(float64(d.snapshots)*1000, n)
	out["transport.frames_per_op"] = ratio(d.framesSent, n)
	out["transport.bytes_per_op"] = ratio(d.bytesSent, n)
	out["transport.retransmits_per_kop"] = ratio(float64(d.retransmits)*1000, n)
	out["transport.queue_high_water"] = d.queueHighWater
	out["session.leader_acquires_per_op"] = ratio(d.leaderAcquires, n)
	out["session.handoffs_per_op"] = ratio(d.handoffs, n)
	out["telemetry.trace_records_per_op"] = ratio(d.traceRecords, n)
	out["runtime.allocs_per_op"] = ratio(float64(d.mallocs), n)
	out["runtime.alloc_bytes_per_op"] = ratio(float64(d.allocBytes), n)
	out["runtime.gc_pause_ms"] = float64(d.gcPause.Microseconds()) / 1000
}
