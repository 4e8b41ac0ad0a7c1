package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"hierlock"
	"hierlock/internal/hlock"
	"hierlock/internal/proto"
	"hierlock/internal/session"
)

// The layer ladder. One caller drives one seeded op sequence at
// successively higher public entry points of the system; each rung's
// figure is cumulative, so a layer's self time is its rung minus the rung
// below. The local path is private-keys' client 0 (resident tokens), the
// remote path is hot-key with a single caller alternating between two
// nodes, so every acquire moves the token.

// span is one timed call into a layer. Spans of one op share its id (the
// index in the seeded stream) across rungs.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"` // since the rung's pass began
	End    int64  `json:"end_ns"`
}

// ladderBatch is how many ops share one pair of clock reads in the
// untraced pass, so a 70 ns engine rung is not measured as clock cost.
const ladderBatch = 32

// rung is one step of a ladder.
type rung struct {
	name string // metric name without the _ns suffix, e.g. ladder.local.member
	c    caller
}

// rungResult is a rung's cost per op: untraced (the reported figure) and
// with a span recorded around every call (for the overhead ratio).
type rungResult struct {
	ns, tracedNS float64
}

// timeRung drives the first n ops of p through the rung twice: in
// batches timed as a whole for the figure, then with a span recorded
// around every call. Both passes report the median batch's mean op time.
func timeRung(r rung, p *plan, n int, spans *[]span) (rungResult, error) {
	fail := func(err error) (rungResult, error) {
		return rungResult{}, fmt.Errorf("%s: %w", r.name, err)
	}
	cycle := func(o *op) error {
		if _, err := r.c.acquire(o); err != nil {
			return err
		}
		return r.c.release(o)
	}
	// Key-touch, then a few batches untimed: settle tokens, lazily
	// created state and the caches before timing.
	for i := range p.ops {
		if err := cycle(&p.ops[i]); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < 4*ladderBatch; i++ {
		if err := cycle(p.at(i)); err != nil {
			return fail(err)
		}
	}
	n -= n % ladderBatch
	var plain, traced []float64
	for i := 0; i < n; i += ladderBatch {
		t0 := time.Now()
		for j := i; j < i+ladderBatch; j++ {
			if err := cycle(p.at(j)); err != nil {
				return fail(err)
			}
		}
		plain = append(plain, float64(time.Since(t0))/ladderBatch)
	}

	base := time.Now()
	for i := 0; i < n; i += ladderBatch {
		var first, t2 time.Duration
		for j := i; j < i+ladderBatch; j++ {
			o := p.at(j)
			t0 := time.Since(base)
			if j == i {
				first = t0
			}
			if _, err := r.c.acquire(o); err != nil {
				return fail(err)
			}
			t1 := time.Since(base)
			if err := r.c.release(o); err != nil {
				return fail(err)
			}
			t2 = time.Since(base)
			*spans = append(*spans,
				span{Name: r.name + "/acquire", Parent: r.name, Op: j, Start: int64(t0), End: int64(t1)},
				span{Name: r.name + "/release", Parent: r.name, Op: j, Start: int64(t1), End: int64(t2)})
		}
		traced = append(traced, float64(t2-first)/ladderBatch)
	}
	*spans = append(*spans, span{Name: r.name, Op: -1, End: int64(time.Since(base))})
	return rungResult{ns: median(plain), tracedNS: median(traced)}, nil
}

// engineCaller is the bottom local rung: one hlock.Engine per key (per
// distinct op of the plan), all on the token node.
type engineCaller struct {
	clock   proto.Clock
	engines []*hlock.Engine
}

func newEngineCaller(p *plan) *engineCaller {
	c := &engineCaller{}
	for i := range p.ops {
		lock := proto.LockID(hierlock.ResourceID(p.ops[i].res))
		c.engines = append(c.engines, hlock.New(0, lock, 0, true, &c.clock, hlock.Options{}))
	}
	return c
}

func (c *engineCaller) acquire(o *op) (hierlock.FenceToken, error) {
	out, err := c.engines[o.id].Acquire(o.mode)
	if err == nil && len(out.Events) != 1 {
		err = fmt.Errorf("local acquire of %s produced %d events, %d messages", o.res, len(out.Events), len(out.Msgs))
	}
	return hierlock.FenceToken{}, err
}

func (c *engineCaller) release(o *op) error {
	_, err := c.engines[o.id].Release()
	return err
}

func (c *engineCaller) upgrade(*op) (hierlock.FenceToken, error) {
	return hierlock.FenceToken{}, errors.ErrUnsupported
}
func (c *engineCaller) abort()       {}
func (c *engineCaller) close() error { return nil }

// enginePairCaller is the bottom remote rungs: two engines for one lock,
// the token starting on node 0, messages carried by hand — and, with
// codec set, through proto's frame encoder and decoder on the way.
type enginePairCaller struct {
	clocks  [2]proto.Clock
	engines [2]*hlock.Engine
	codec   bool
	buf     []byte
	n       int // ops done; the requester is node (n+1)%2, where the token is not
}

func newEnginePair(lock proto.LockID, codec bool) *enginePairCaller {
	c := &enginePairCaller{codec: codec}
	c.engines[0] = hlock.New(0, lock, 0, true, &c.clocks[0], hlock.Options{})
	c.engines[1] = hlock.New(1, lock, 0, false, &c.clocks[1], hlock.Options{})
	return c
}

// deliver hands out's messages to their addressees until the exchange
// dies down, and reports whether node want saw its grant.
func (c *enginePairCaller) deliver(out hlock.Out, want int) (granted bool, err error) {
	pending := out.Msgs
	for len(pending) > 0 {
		msg := &pending[0]
		pending = pending[1:]
		to := int(msg.To)
		if c.codec {
			c.buf = proto.AppendFrame(c.buf[:0], msg)
			decoded, err := proto.DecodeMessage(c.buf[4:])
			if err != nil {
				return false, err
			}
			msg = decoded
		}
		next, err := c.engines[to].Handle(msg)
		if c.codec {
			proto.PutMessage(msg)
		}
		if err != nil {
			return false, err
		}
		if to == want && len(next.Events) > 0 {
			granted = true
		}
		pending = append(pending, next.Msgs...)
	}
	return granted, nil
}

func (c *enginePairCaller) acquire(o *op) (hierlock.FenceToken, error) {
	me := (c.n + 1) % 2
	out, err := c.engines[me].Acquire(o.mode)
	if err != nil {
		return hierlock.FenceToken{}, err
	}
	granted, err := c.deliver(out, me)
	if err == nil && !granted {
		err = fmt.Errorf("node %d: request exchange ended without a grant", me)
	}
	return hierlock.FenceToken{}, err
}

func (c *enginePairCaller) release(*op) error {
	me := (c.n + 1) % 2
	c.n++
	out, err := c.engines[me].Release()
	if err != nil {
		return err
	}
	_, err = c.deliver(out, -1)
	return err
}

func (c *enginePairCaller) upgrade(*op) (hierlock.FenceToken, error) {
	return hierlock.FenceToken{}, errors.ErrUnsupported
}
func (c *enginePairCaller) abort()       {}
func (c *enginePairCaller) close() error { return nil }

// ladderResult is both ladders' rungs, by rung name.
type ladderResult map[string]rungResult

func (l ladderResult) metrics(out map[string]float64) {
	for name, r := range l {
		out[name+"_ns"] = r.ns
	}
}

// overhead is a rung's cost with span recording on ÷ off.
func (l ladderResult) overhead(name string) float64 {
	return ratio(l[name].tracedNS, l[name].ns)
}

// telemetryFor attaches lockd's default telemetry to an in-process
// (channel transport) member and returns a stop function.
func telemetryFor(m *hierlock.Member) (stop func(), err error) {
	n := &node{m: m}
	if err := n.attachTelemetry(m.ID(), ""); err != nil {
		return nil, err
	}
	return n.wd.Stop, nil
}

// tcpPair starts two reliable TCP members, with journals under dir when
// it is non-empty.
func tcpPair(dir string) ([]*hierlock.Member, error) {
	addrs, err := reservePorts(2)
	if err != nil {
		return nil, err
	}
	var ms []*hierlock.Member
	for i := range addrs {
		m, err := hierlock.NewTCPMember(hierlock.TCPMemberConfig{
			ID: i, ListenAddr: addrs[i], Peers: peersOf(addrs, i),
			Reliable: true, HeartbeatInterval: heartbeatInterval,
			DataDir: dir, FsyncPolicy: hierlock.FsyncBatched,
		})
		if err != nil {
			for _, started := range ms {
				_ = started.Close()
			}
			return nil, err
		}
		ms = append(ms, m)
	}
	return ms, nil
}

func alternating(a, b caller) caller { return &altCaller{sides: [2]caller{a, b}} }

// runLadder times every rung of both paths over the first n ops of the
// seeded sequences and writes the spans to outDir.
func runLadder(seed int64, n int, outDir string) (ladderResult, error) {
	var table resourceTable
	localPlan, err := buildPlan(wlPrivate, seed, 0, &table)
	if err != nil {
		return nil, err
	}
	remotePlan, err := buildPlan(wlHotKey, seed, 0, &table)
	if err != nil {
		return nil, err
	}

	// Everything started here is released through cleanup, in reverse.
	var cleanup []func()
	defer func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}()
	closing := func(c interface{ Close() error }) { cleanup = append(cleanup, func() { _ = c.Close() }) }
	// own registers a caller for closing and returns it.
	own := func(c caller) caller {
		cleanup = append(cleanup, func() { _ = c.close() })
		return c
	}
	member := func(m *hierlock.Member) caller { return own(newMemberCaller(m)) }

	bare, err := hierlock.NewCluster(1)
	if err != nil {
		return nil, err
	}
	closing(bare)
	instrumented, err := hierlock.NewCluster(1)
	if err != nil {
		return nil, err
	}
	closing(instrumented)
	stopTelemetry, err := telemetryFor(instrumented.Member(0))
	if err != nil {
		return nil, err
	}
	cleanup = append(cleanup, stopTelemetry)
	full, err := startCluster(true)
	if err != nil {
		return nil, err
	}
	cleanup = append(cleanup, func() { _ = full.close() })
	mgr := session.NewManager(session.Config{})
	cleanup = append(cleanup, mgr.Close)
	pipeClient, pipeServer := net.Pipe()
	pipeServed := make(chan struct{})
	go func() {
		defer close(pipeServed)
		full.nodes[1].srv.ServeConn(pipeServer)
	}()
	dial := func(i int) (caller, error) {
		c, err := dialLine(full.nodes[i].addr)
		if err != nil {
			return nil, err
		}
		return own(c), nil
	}
	cleanup = append(cleanup, func() { <-pipeServed }) // runs after the pipe's close below
	pipe := own(newLineCaller(pipeClient))
	tcp1, err := dial(1)
	if err != nil {
		return nil, err
	}

	chanPair, err := hierlock.NewCluster(2)
	if err != nil {
		return nil, err
	}
	closing(chanPair)
	plainPair, err := tcpPair("")
	if err != nil {
		return nil, err
	}
	journalDir, err := os.MkdirTemp("", "hlload-ladder-")
	if err != nil {
		return nil, err
	}
	cleanup = append(cleanup, func() { _ = os.RemoveAll(journalDir) })
	journalPair, err := tcpPair(journalDir)
	if err != nil {
		return nil, err
	}
	for _, m := range append(plainPair, journalPair...) {
		closing(m)
	}
	tcp1b, err := dial(1)
	if err != nil {
		return nil, err
	}
	tcp2, err := dial(2)
	if err != nil {
		return nil, err
	}
	hot := proto.LockID(hierlock.ResourceID("hot"))
	members := func(ms ...*hierlock.Member) caller { return alternating(member(ms[0]), member(ms[1])) }

	paths := []struct {
		name  string
		plan  *plan
		rungs []rung
	}{
		{"local", localPlan, []rung{
			{"ladder.local.hlock", newEngineCaller(localPlan)},
			{"ladder.local.member", member(bare.Member(0))},
			{"ladder.local.telemetry", member(instrumented.Member(0))},
			{"ladder.local.journal", member(full.nodes[1].m)},
			{"ladder.local.session", own(newSessionCaller(full.nodes[1].m, mgr))},
			{"ladder.local.lockserver", pipe},
			{"ladder.local.tcp", tcp1},
		}},
		{"remote", remotePlan, []rung{
			{"ladder.remote.hlock", newEnginePair(hot, false)},
			{"ladder.remote.proto", newEnginePair(hot, true)},
			{"ladder.remote.member", members(chanPair.Member(0), chanPair.Member(1))},
			{"ladder.remote.transport", members(plainPair...)},
			{"ladder.remote.journal", members(journalPair...)},
			{"ladder.remote.lockserver", alternating(tcp1b, tcp2)},
		}},
	}
	res := ladderResult{}
	for _, path := range paths {
		var spans []span
		for _, r := range path.rungs {
			rr, err := timeRung(r, path.plan, n, &spans)
			if err != nil {
				return nil, err
			}
			res[r.name] = rr
		}
		if err := writeSpans(filepath.Join(outDir, "spans-"+path.name+".jsonl"), spans); err != nil {
			return nil, err
		}
	}
	if err := full.verify(); err != nil {
		return nil, fmt.Errorf("ladder cluster: %w", err)
	}
	return res, nil
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
