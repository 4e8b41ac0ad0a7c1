package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"hierlock/internal/journal"
	"hierlock/internal/modes"
	"hierlock/internal/proto"
	"hierlock/internal/transport"
)

// Stand-alone layer probes: each times one layer's public functions with
// nothing else on the path. They run in the -traced run only.

const (
	probeBatch  = 64  // calls per clock read, as in the ladder
	probeRounds = 200 // batches (or single timed calls) per probe
	burstFrames = 64  // frames per transport burst
	codecQueue  = 2   // queued requests in the probed token message
	probeWait   = 10 * time.Second
)

// batchMedian times fn in probeRounds batches of probeBatch calls and
// returns the median batch's mean nanoseconds per call.
func batchMedian(fn func() error) (float64, error) {
	per := make([]float64, 0, probeRounds)
	for r := 0; r < probeRounds; r++ {
		t0 := time.Now()
		for i := 0; i < probeBatch; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(t0))/probeBatch)
	}
	return median(per), nil
}

// probeMessage is a token transfer carrying a short queue: the largest
// message the hot-key path sends.
func probeMessage() *proto.Message {
	m := &proto.Message{
		Kind: proto.KindToken, Lock: 7, From: 1, To: 2, TS: 41, Seq: 9,
		Mode: modes.W,
		Req:  proto.Request{Origin: 2, Mode: modes.W, TS: 40},
	}
	for i := 0; i < codecQueue; i++ {
		m.Queue = append(m.Queue, proto.Request{Origin: proto.NodeID(i), Mode: modes.W, TS: proto.Timestamp(30 + i)})
	}
	return m
}

// probeProto times the frame encoder and decoder and counts the
// decoder's heap allocations per message (pooled Message returned after
// each decode, as the TCP transport does).
func probeProto(out map[string]float64) error {
	msg := probeMessage()
	var buf []byte
	enc, err := batchMedian(func() error {
		buf = proto.AppendFrame(buf[:0], msg)
		return nil
	})
	if err != nil {
		return err
	}
	decode := func() error {
		m, err := proto.DecodeMessage(buf[4:])
		if err != nil {
			return err
		}
		proto.PutMessage(m)
		return nil
	}
	dec, err := batchMedian(decode)
	if err != nil {
		return err
	}
	const allocRuns = 10_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocRuns; i++ {
		if err := decode(); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	out["proto.encode_ns"] = enc
	out["proto.decode_ns"] = dec
	out["proto.decode_allocs"] = float64(after.Mallocs-before.Mallocs) / allocRuns
	return nil
}

// probeJournal times a batched-policy append, an explicit sync after one
// append, and measures the WAL bytes one record occupies.
func probeJournal(out map[string]float64) (err error) {
	dir, err := os.MkdirTemp("", "hlload-journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// Snapshots off so WALBytes counts every record appended.
	j, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncBatched, SnapshotEvery: -1})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := j.Close(); err == nil {
			err = cerr
		}
	}()
	var ts uint64
	rec := func() journal.Record {
		ts++
		return journal.Record{Kind: journal.RecGrant, Lock: proto.LockID(ts % 64), Mode: modes.W, Token: true, TS: ts}
	}
	appendNS, err := batchMedian(func() error { return j.Append(rec()) })
	if err != nil {
		return err
	}
	st := j.Stats()
	syncs := make([]float64, 0, probeRounds)
	for i := 0; i < probeRounds; i++ {
		if err := j.Append(rec()); err != nil {
			return err
		}
		t0 := time.Now()
		if err := j.Sync(); err != nil {
			return err
		}
		syncs = append(syncs, float64(time.Since(t0))/float64(time.Microsecond))
	}
	out["journal.append_ns"] = appendNS
	out["journal.sync_us"] = median(syncs)
	out["journal.bytes_per_record"] = float64(st.WALBytes) / float64(st.Records)
	return nil
}

// probeTransport times two reliable TCPTransports on loopback: one
// frame's trip from Send to the peer's Handler, and the frame rate and
// frames per write(2) of 64-frame bursts (the coalescing path).
func probeTransport(out map[string]float64) error {
	addrs, err := reservePorts(2)
	if err != nil {
		return err
	}
	var ts [2]*transport.TCPTransport
	for i := range ts {
		t, err := transport.NewTCP(transport.TCPConfig{
			Self: proto.NodeID(i), ListenAddr: addrs[i], Reliable: true,
			Peers: map[proto.NodeID]string{proto.NodeID(1 - i): addrs[1-i]},
		})
		if err != nil {
			return err
		}
		defer t.Close()
		ts[i] = t
	}
	// Sized to a whole burst so the handler never blocks the transport's
	// delivery goroutine.
	arrived := make(chan struct{}, burstFrames)
	if err := ts[0].Start(func(*proto.Message) {}); err != nil {
		return err
	}
	if err := ts[1].Start(func(*proto.Message) { arrived <- struct{}{} }); err != nil {
		return err
	}
	msg := probeMessage()
	msg.From, msg.To = 0, 1
	timeout := time.NewTimer(probeWait)
	defer timeout.Stop()
	send := func(frames int) error {
		for i := 0; i < frames; i++ {
			if err := ts[0].Send(msg); err != nil {
				return err
			}
		}
		for i := 0; i < frames; i++ {
			select {
			case <-arrived:
			case <-timeout.C:
				return fmt.Errorf("transport probe: frame not delivered within %v", probeWait)
			}
		}
		return nil
	}
	if err := send(burstFrames); err != nil { // dial, settle
		return err
	}
	oneway := make([]float64, 0, probeRounds*4)
	for i := 0; i < cap(oneway); i++ {
		t0 := time.Now()
		if err := send(1); err != nil {
			return err
		}
		oneway = append(oneway, float64(time.Since(t0))/float64(time.Microsecond))
	}
	io0 := ts[0].IOStats()
	t0 := time.Now()
	for r := 0; r < probeRounds; r++ {
		if err := send(burstFrames); err != nil {
			return err
		}
	}
	elapsed := time.Since(t0)
	io1 := ts[0].IOStats()
	out["transport.oneway_us"] = median(oneway)
	out["transport.burst_frames_per_s"] = float64(probeRounds*burstFrames) / elapsed.Seconds()
	out["transport.frames_per_write"] = ratio(float64(io1.FramesSent-io0.FramesSent), float64(io1.WriteCalls-io0.WriteCalls))
	return nil
}

// runProbes runs every stand-alone probe.
func runProbes(out map[string]float64) error {
	for _, p := range []func(map[string]float64) error{probeProto, probeJournal, probeTransport} {
		if err := p(out); err != nil {
			return err
		}
	}
	return nil
}
