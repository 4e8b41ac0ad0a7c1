package main

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"time"

	"hierlock"
	"hierlock/internal/audit"
	"hierlock/internal/introspect"
	"hierlock/internal/journal"
	"hierlock/internal/lockserver"
	"hierlock/internal/metrics"
	"hierlock/internal/profile"
	"hierlock/internal/proto"
	"hierlock/internal/trace"
	"hierlock/internal/watchdog"
)

// The deviations from lockd's flag defaults, shared by the in-process
// cluster and the real-process cross-check: -data-dir, -reliable and
// -heartbeat 200ms. Everything else is what a bare lockd runs with.
const heartbeatInterval = 200 * time.Millisecond

// lockd's defaults for the telemetry it attaches unconditionally.
const (
	traceBuf         = 4096
	blackboxBuf      = 4096
	blackboxInterval = 5 * time.Second
	watchdogInterval = time.Second
	netLatencyBase   = 150 * time.Millisecond
)

// clusterNodes is the cluster size: the root plus one node per caller.
const clusterNodes = 1 + maxCallers

// node is one lockd-equivalent: a TCP member plus what cmd/lockd wires
// around it.
type node struct {
	m   *hierlock.Member
	reg *metrics.Registry
	rec *trace.Recorder
	aud *audit.Auditor
	wd  *watchdog.Runner

	srv     *lockserver.Server
	addr    string     // client (line protocol) address
	served  chan error // Serve's return value
	stopped bool
}

// cluster is an in-process loopback-TCP cluster under one temp dir.
type cluster struct {
	dir       string
	telemetry bool
	nodes     []*node
}

// reservePorts returns n loopback addresses that were free a moment ago.
// Members must know each other's address before any of them starts, so
// the ports are picked first and bound second.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve loopback port: %w", err)
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close() // on return, not per iteration: held until all n are distinct
	}
	return addrs, nil
}

func peersOf(addrs []string, self int) map[int]string {
	peers := make(map[int]string, len(addrs)-1)
	for j, a := range addrs {
		if j != self {
			peers[j] = a
		}
	}
	return peers
}

// startCluster brings up clusterNodes journaled members, each with a
// lockserver on its own loopback listener and (unless telemetry is false,
// the denominator of telemetry.ops_ratio) lockd's default telemetry,
// under a fresh temp dir. On error everything already started is torn
// down.
func startCluster(telemetry bool) (*cluster, error) {
	dir, err := os.MkdirTemp("", "hlload-")
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir, telemetry: telemetry}
	// A reserved port can be taken between reservation and bind; retry
	// with fresh ports rather than fail the run.
	for attempt := 0; ; attempt++ {
		err = c.start()
		if err == nil {
			return c, nil
		}
		c.stop()
		if attempt == 2 {
			_ = os.RemoveAll(dir)
			return nil, err
		}
	}
}

func (c *cluster) start() error {
	addrs, err := reservePorts(clusterNodes)
	if err != nil {
		return err
	}
	c.nodes = nil
	for i := 0; i < clusterNodes; i++ {
		cfg := hierlock.TCPMemberConfig{
			ID:                i,
			ListenAddr:        addrs[i],
			Peers:             peersOf(addrs, i),
			Reliable:          true,
			HeartbeatInterval: heartbeatInterval,
			DataDir:           c.dir,
			FsyncPolicy:       hierlock.FsyncBatched,
		}
		m, err := hierlock.NewTCPMember(cfg)
		if err != nil {
			return fmt.Errorf("start member %d: %w", i, err)
		}
		n := &node{m: m}
		c.nodes = append(c.nodes, n)
		if c.telemetry {
			if err := n.attachTelemetry(i, c.dir); err != nil {
				return err
			}
		}
		if err := n.serve(); err != nil {
			return err
		}
	}
	return nil
}

// discardLogger is lockd's default logger (text, level info) with its
// output dropped: the member pays the same Enabled checks, the terminal
// is spared the peer-state chatter.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

// attachTelemetry mirrors what cmd/lockd attaches by default: a metrics
// registry, the trace ring with the auditor and the flight recorder
// tapped onto it, the profiler's collectors and the stall watchdog.
func (n *node) attachTelemetry(id int, dataDir string) error {
	n.reg = metrics.NewRegistry()
	bb := introspect.NewRecorder(proto.NodeID(id), blackboxBuf)
	if dataDir != "" {
		if err := bb.EnableAutoDump(filepath.Join(dataDir, "blackbox"), blackboxInterval); err != nil {
			return fmt.Errorf("node %d blackbox dir: %w", id, err)
		}
	}
	n.rec = trace.New(traceBuf)
	n.aud = audit.New(audit.Config{Registry: n.reg, Root: 0,
		OnViolation: func(audit.Violation) { _, _ = bb.TriggerDump(introspect.ReasonAuditViolation) }})
	n.rec.SetTap(n.aud.Record)
	n.rec.AddTap(bb.Tap)
	n.m.SetTelemetry(hierlock.Telemetry{
		Registry:       n.reg,
		Trace:          n.rec,
		NetLatencyBase: netLatencyBase,
		Logger:         discardLogger(),
		Blackbox:       bb,
	})
	if dataDir != "" {
		prof, err := profile.New(filepath.Join(dataDir, "profiles"), blackboxInterval)
		if err != nil {
			return fmt.Errorf("node %d profile dir: %w", id, err)
		}
		profile.RegisterCollectors(n.reg, prof)
	}
	n.wd = watchdog.NewRunner(watchdog.Config{}, watchdogInterval, n.m.HealthSample)
	watchdog.RegisterCollectors(n.reg, n.wd)
	n.wd.Start()
	return nil
}

// serve starts the node's lockserver on a loopback listener of its own.
func (n *node) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("client listener: %w", err)
	}
	n.srv = lockserver.New(n.m)
	n.srv.Registry = n.reg
	n.srv.Trace = n.rec
	n.srv.Audit = n.aud
	n.srv.Health = n.wd
	n.addr = ln.Addr().String()
	n.served = make(chan error, 1)
	go func() { n.served <- n.srv.Serve(ln) }()
	return nil
}

// stop shuts every node down: lockservers first (draining client
// sessions), then watchdogs, then members (final journal sync).
func (c *cluster) stop() error {
	var errs []error
	for i, n := range c.nodes {
		if n.stopped {
			continue
		}
		n.stopped = true
		if n.srv != nil {
			_ = n.srv.Close()
			<-n.served
		}
		if n.wd != nil {
			n.wd.Stop()
		}
		if err := n.m.Close(); err != nil {
			errs = append(errs, fmt.Errorf("close member %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// verify runs the cluster-side correctness checks a workload ends with:
// no protocol error, a clean auditor and an empty lock inventory on
// every node. Call it after the clients have drained.
func (c *cluster) verify() error {
	var errs []error
	for i, n := range c.nodes {
		if err := n.m.Err(); err != nil {
			errs = append(errs, fmt.Errorf("member %d protocol error: %w", i, err))
		}
		if n.aud != nil {
			if rep := n.aud.Snapshot(); rep.Total != 0 {
				errs = append(errs, fmt.Errorf("node %d auditor flagged %d violations: %v", i, rep.Total, rep.ByCheck))
			}
		}
		for _, li := range n.m.Inventory().Locks {
			if li.Held != "" || li.Waiter != nil {
				errs = append(errs, fmt.Errorf("node %d still holds or awaits %s (held=%q)", i, li.Resource, li.Held))
			}
		}
	}
	return errors.Join(errs...)
}

// close stops the cluster, checks that every member's journal replays,
// and removes the temp dir.
func (c *cluster) close() error {
	err := c.stop()
	for i := range c.nodes {
		if _, rerr := journal.Replay(filepath.Join(c.dir, fmt.Sprintf("member-%d", i))); rerr != nil {
			err = errors.Join(err, fmt.Errorf("replay member %d journal: %w", i, rerr))
		}
	}
	return errors.Join(err, os.RemoveAll(c.dir))
}
