// Command lockd is a hierarchical distributed lock daemon: one member of
// a hierlock cluster plus a line-oriented client front end (see
// internal/lockserver for the protocol).
//
// Example three-node cluster:
//
//	lockd -id 0 -listen :7400 -client :8400 -peers 1=h2:7401,2=h3:7402
//	lockd -id 1 -listen :7401 -client :8401 -peers 0=h1:7400,2=h3:7402
//	lockd -id 2 -listen :7402 -client :8402 -peers 0=h1:7400,1=h2:7401
//
// Applications then connect to the -client port with lockctl (or any
// line-oriented client) and issue LOCK/UNLOCK/UPGRADE commands. Locks
// belong to the client connection and die with it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hierlock"
	"hierlock/internal/audit"
	"hierlock/internal/introspect"
	"hierlock/internal/lockserver"
	"hierlock/internal/metrics"
	"hierlock/internal/profile"
	"hierlock/internal/proto"
	"hierlock/internal/trace"
	"hierlock/internal/watchdog"
)

func main() {
	var (
		id      = flag.Int("id", 0, "this node's member id")
		root    = flag.Int("root", 0, "member id that initially holds all tokens")
		listen  = flag.String("listen", ":7400", "peer (protocol) listen address")
		client  = flag.String("client", ":8400", "client listen address")
		peers   = flag.String("peers", "", "peer map: id=host:port,id=host:port")
		timeout = flag.Duration("timeout", 0, "per-request lock timeout (0 = wait forever)")

		join      = flag.String("join", "", "join a running cluster via this seed member's peer address (-peers may be empty, the cluster is learned from the seed); returns once every member learned has answered or is confirmed dead")
		advertise = flag.String("advertise", "", "peer address other members should dial to reach this one, carried in JOIN announcements (default: the -listen listener's actual address)")

		leaseTTL   = flag.Duration("lease-ttl", 30*time.Second, "default session lease TTL; an expired lease force-releases the session's locks")
		maxWaiters = flag.Int("max-waiters", 0, "cap on exclusive-mode clients waiting per (resource, mode); beyond it LOCK answers ERR busy (0 = unbounded)")
		debug      = flag.String("debug", "", "debug HTTP listen address for /healthz, /metrics, /debug/health, /debug/trace, /debug/audit, /debug/locks, /debug/incidents and /debug/pprof (disabled if empty)")

		traceBuf = flag.Int("trace-buf", 4096, "protocol trace ring size in entries (0 disables tracing)")
		auditOn  = flag.Bool("audit", true, "run the online protocol invariant auditor (requires -trace-buf > 0)")

		logFormat = flag.String("log-format", "text", "log output format: text or json")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")

		_          = flag.Bool("reliable", true, "ignored. Deprecated: the link is always sequenced; removed when the benchmark harness stops setting it")
		queueLimit = flag.Int("queue-limit", 0, "bound per-peer outbound and inbound queues (0 = unbounded)")

		heartbeat       = flag.Duration("heartbeat", 0, "peer beacon interval; every member beacons, detects crashes and regenerates lost tokens (0 = 1s)")
		confirmAfter    = flag.Duration("confirm-after", 0, "silence before a peer is confirmed dead and recovery starts; must exceed worst-case GC/network stalls (0 = 8x -heartbeat)")
		recoveryTimeout = flag.Duration("recovery-timeout", 0, "abandon a lock operation with no grant after this long (0 = wait forever)")

		mutexFrac  = flag.Int("mutex-profile-fraction", 0, "sample 1/N of mutex contention events into the mutex profile (0 = off)")
		blockRate  = flag.Int("block-profile-rate", 0, "sample blocking events of at least N ns into the block profile (1 = everything, 0 = off)")
		wdInterval = flag.Duration("watchdog", time.Second, "stall-watchdog evaluation interval for /healthz and /debug/health (0 disables)")

		dataDir     = flag.String("data-dir", "", "directory for the durable write-ahead journal (empty = no persistence); state lives under <data-dir>/member-<id>")
		fsyncPolicy = flag.String("fsync", "batched", "journal fsync policy: batched (group fsync on the coalescing cadence), always (inline per append) or never")
	)
	flag.Parse()

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lockd: %v\n", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	peerMap, err := parsePeers(*peers)
	if err != nil {
		fatal("bad -peers", "err", err)
	}
	fsync, err := hierlock.ParseFsyncPolicy(*fsyncPolicy)
	if err != nil {
		fatal("bad -fsync", "err", err)
	}
	reg := metrics.NewRegistry()
	var rec *trace.Recorder
	var auditor *audit.Auditor
	// Incidents are written under the data dir; without one, nothing is.
	incidents := introspect.NewRecorder(proto.NodeID(*id), 0)
	if *dataDir != "" {
		dir := filepath.Join(*dataDir, "incidents")
		if err := incidents.EnableAutoDump(dir, 0); err != nil {
			fatal("incident dir failed", "dir", dir, "err", err)
		}
	}
	if *traceBuf > 0 {
		rec = trace.New(*traceBuf)
		if *auditOn {
			auditor = audit.New(audit.Config{Registry: reg, Root: proto.NodeID(*root),
				// An invariant breach is exactly what incidents exist for:
				// keep the lead-up the moment one is flagged.
				OnViolation: func(v audit.Violation) {
					path, _ := incidents.TriggerDump(introspect.ReasonAuditViolation)
					logger.Warn("protocol invariant violated",
						"invariant", v.Invariant, "lock", uint64(v.Lock),
						"detail", v.Detail, "incident", path)
				}})
			rec.SetTap(auditor.Record)
		}
	}
	// Telemetry is attached before the transport starts: a restarted
	// member runs its cold-start round — and a joining one its handshake —
	// before NewTCPMember and Join return, and those are exactly the
	// frames the trace, the auditor and the log should not miss.
	m, err := hierlock.NewTCPMember(hierlock.TCPMemberConfig{
		ID:                *id,
		Root:              *root,
		ListenAddr:        *listen,
		AdvertiseAddr:     *advertise,
		Peers:             peerMap,
		QueueLimit:        *queueLimit,
		HeartbeatInterval: *heartbeat,
		ConfirmAfter:      *confirmAfter,
		RecoveryTimeout:   *recoveryTimeout,
		DataDir:           *dataDir,
		FsyncPolicy:       fsync,
		Telemetry: &hierlock.Telemetry{
			Registry: reg,
			Trace:    rec,
			Logger:   logger,
			Blackbox: incidents,
		},
	})
	if err != nil {
		fatal("member start failed", "err", err)
	}
	defer m.Close()

	if *join != "" {
		ctx, cancel := context.WithTimeout(context.Background(), lockserver.MembershipTimeout)
		err := m.Join(ctx, *join)
		cancel()
		if err != nil {
			fatal("join failed", "seed", *join, "err", err)
		}
		logger.Info("joined cluster", "seed", *join, "members", len(m.Members()))
	}

	profile.EnableRuntimeProfiles(*mutexFrac, *blockRate)

	// The stall watchdog samples the member every interval and drives
	// /healthz; entering the stalled state writes an incident, profiles
	// included, so the evidence survives the stall.
	var wd *watchdog.Runner
	if *wdInterval > 0 {
		wd = watchdog.NewRunner(watchdog.Config{}, *wdInterval, m.HealthSample)
		wd.OnTransition(func(from, to watchdog.State, h watchdog.Health) {
			if to == watchdog.Stalled {
				path, _ := incidents.TriggerDump(introspect.ReasonStall)
				logger.Error("watchdog: node stalled",
					"reasons", healthReasonCodes(h), "incident", path)
				return
			}
			logger.Warn("watchdog state changed",
				"from", from.String(), "to", to.String(), "reasons", healthReasonCodes(h))
		})
		watchdog.RegisterCollectors(reg, wd)
		wd.Start()
		defer wd.Stop()
	}

	ln, err := net.Listen("tcp", *client)
	if err != nil {
		fatal("client listen failed", "addr", *client, "err", err)
	}
	logger.Info("lockd up", "member", *id, "peer_addr", *listen,
		"client_addr", ln.Addr().String(), "audit", auditor != nil)

	srv := lockserver.New(m)
	srv.Timeout = *timeout
	srv.LeaseTTL = *leaseTTL
	srv.MaxWaiters = *maxWaiters
	srv.Registry = reg
	srv.Trace = rec
	srv.Audit = auditor
	srv.Incidents = incidents
	srv.Health = wd

	// The debug listener runs behind an http.Server so shutdown can drain
	// it instead of leaking the listener.
	var debugSrv *http.Server
	if *debug != "" {
		dln, err := net.Listen("tcp", *debug)
		if err != nil {
			fatal("debug listen failed", "addr", *debug, "err", err)
		}
		logger.Info("debug endpoints up", "url", "http://"+dln.Addr().String()+"/healthz")
		debugSrv = &http.Server{Handler: srv.DebugHandler()}
		go func() {
			if err := debugSrv.Serve(dln); err != nil && err != http.ErrServerClosed {
				logger.Error("debug server failed", "err", err)
			}
		}()
	}

	// Graceful shutdown: stop accepting, drain client sessions (their
	// locks are released as connections close), shut the debug server
	// down cleanly, then exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		logger.Info("shutting down", "signal", s.String())
		_ = srv.Close()
	}()

	err = srv.Serve(ln)
	logger.Info("client serve stopped", "err", err)
	if debugSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := debugSrv.Shutdown(ctx); err != nil {
			logger.Warn("debug server drain incomplete", "err", err)
		} else {
			logger.Info("debug server drained")
		}
	}
	if auditor != nil {
		rep := auditor.Snapshot()
		logger.Info("final audit report", "entries", rep.Entries, "violations", rep.Total)
	}
}

// healthReasonCodes flattens a verdict's reason codes for log fields.
func healthReasonCodes(h watchdog.Health) []string {
	codes := make([]string, len(h.Reasons))
	for i, r := range h.Reasons {
		codes[i] = r.Code
	}
	return codes
}

// newLogger builds the process logger from the -log-format and
// -log-level flags.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

func parsePeers(s string) (map[int]string, error) {
	peers := make(map[int]string)
	if s == "" {
		return peers, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		id, err := strconv.Atoi(kv[0])
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q", kv[0])
		}
		peers[id] = kv[1]
	}
	return peers, nil
}
