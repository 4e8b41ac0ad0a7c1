package lockserver

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"hierlock/internal/introspect"
	"hierlock/internal/profile"
	"hierlock/internal/proto"
	"hierlock/internal/trace"
	"hierlock/internal/watchdog"
)

// DebugHandler exposes the member's observability surface over HTTP:
//
//	GET /healthz      → the watchdog's verdict as plain text: 200 "ok" when
//	                   healthy, 200 "degraded" (load balancers keep serving
//	                   a degraded node), 503 "stalled" when client-visible
//	                   progress stopped, and 503 with the error if the
//	                   member recorded a protocol failure. Without a
//	                   watchdog attached, the protocol-failure check alone.
//	GET /debug/health → the watchdog's full verdict as JSON: state plus
//	                   structured reasons (code, severity, detail) and the
//	                   per-state transition counts (503 when no watchdog is
//	                   attached)
//	GET /stats        → JSON: acquisitions, latencies, message counts by kind
//	GET /metrics      → Prometheus text exposition of the attached Registry
//	                   (503 when no registry is attached)
//	GET /debug/trace  → JSON dump of the attached trace Recorder; ?n=K limits
//	                   to the K most recent entries, ?enable=off freezes what
//	                   this endpoint shows (the ring, its taps and the flight
//	                   recorder carry on) until ?enable=on (503 when no
//	                   recorder is attached). `lockctl trace --cluster`
//	                   fetches it from every node and merges the buffers.
//	GET /debug/audit  → JSON report of the online protocol auditor: entries
//	                   consumed, violations per invariant, recent violation
//	                   details (503 when no auditor is attached)
//	GET /debug/locks  → JSON inventory of every lock this node tracks:
//	                   epoch, token ownership, held/pending/frozen modes,
//	                   copyset, probable-owner next hop, queued requests
//	                   and the local waiter with its wait duration.
//	                   `lockctl locks --cluster` fetches it from every
//	                   node and merges the cluster-wide wait-for graph.
//	GET /debug/blackbox → JSON view of the flight recorder: counters, the
//	                   retained events (?n=K limits to the K most
//	                   recent) and the dump files on disk. ?dump=NAME
//	                   returns one dump file; ?trigger=1 forces a manual
//	                   dump. 503 when no recorder is attached.
//	GET /debug/profile → JSON view of the continuous profiler: capture
//	                   counters and the pprof files on disk. ?capture=KIND
//	                   (cpu, heap, goroutine, mutex, block or all) takes a
//	                   capture first (rate-limited per kind; cpu blocks for
//	                   the sampling duration); ?file=NAME returns one raw
//	                   pprof file. 503 when no profiler is attached.
//	GET /debug/pprof/ → the standard net/http/pprof profiles
//
// Mount it on lockd's -debug listener. The handler never fetches another
// URL: merging nodes is the caller's job (FetchAll).
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if err := s.member.Err(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Health != nil {
			h := s.Health.Current()
			if h.State == watchdog.Stalled {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			if h.State != watchdog.Healthy {
				_, _ = fmt.Fprintf(w, "%s\n", h.Status)
				for _, reason := range h.Reasons {
					_, _ = fmt.Fprintf(w, "%s: %s\n", reason.Code, reason.Detail)
				}
				return
			}
		}
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/health", func(w http.ResponseWriter, r *http.Request) {
		if s.Health == nil {
			http.Error(w, "no watchdog attached", http.StatusServiceUnavailable)
			return
		}
		h := s.Health.Current()
		transitions := make(map[string]uint64, len(watchdog.States))
		for st, n := range s.Health.Transitions() {
			transitions[st.String()] = n
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(HealthView{
			Node:        s.member.ID(),
			State:       h.Status,
			Reasons:     h.Reasons,
			Transitions: transitions,
		})
	})
	mux.HandleFunc("/debug/profile", func(w http.ResponseWriter, r *http.Request) {
		if s.Profiler == nil {
			http.Error(w, "no profiler attached", http.StatusServiceUnavailable)
			return
		}
		q := r.URL.Query()
		if name := q.Get("file"); name != "" {
			data, err := s.Profiler.Read(name)
			if err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", name))
			_, _ = w.Write(data)
			return
		}
		var captured []string
		var capErr string
		switch kind := q.Get("capture"); kind {
		case "":
		case "all":
			files, err := s.Profiler.CaptureAll()
			for _, f := range files {
				captured = append(captured, filepath.Base(f))
			}
			if err != nil {
				capErr = err.Error()
			}
		default:
			path, err := s.Profiler.Capture(kind)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if path != "" {
				captured = append(captured, filepath.Base(path))
			}
		}
		files, err := s.Profiler.List()
		view := ProfileView{
			Node:       s.member.ID(),
			Dir:        s.Profiler.Dir(),
			Captured:   captured,
			CaptureErr: capErr,
			Files:      files,
		}
		st := s.Profiler.Stats()
		view.Captures = st.Captures
		view.Suppressed = st.Suppressed
		if st.LastErr != nil {
			view.LastErr = st.LastErr.Error()
		}
		if err != nil {
			view.LastErr = err.Error()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(view)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		st := s.member.Stats()
		type peerHealth struct {
			State          string `json:"state"`
			QueueLen       uint64 `json:"queue_len"`
			QueueHighWater uint64 `json:"queue_high_water"`
			QueueFullDrops uint64 `json:"queue_full_drops"`
		}
		type linkCounters struct {
			Redials        uint64 `json:"redials"`
			Retransmits    uint64 `json:"retransmits"`
			DupsSuppressed uint64 `json:"dups_suppressed"`
		}
		type journalStats struct {
			Records     uint64  `json:"records"`
			WALBytes    int64   `json:"wal_bytes"`
			Fsyncs      uint64  `json:"fsyncs"`
			MeanFsyncMS float64 `json:"mean_fsync_ms"`
			Snapshots   uint64  `json:"snapshots"`
			Locks       int     `json:"locks"`
		}
		type stats struct {
			MemberID     int                `json:"member_id"`
			Acquires     uint64             `json:"acquires"`
			SharedJoins  uint64             `json:"shared_joins"`
			MessagesSent map[string]uint64  `json:"messages_sent"`
			PeerHealth   map[int]peerHealth `json:"peer_health"`
			Link         linkCounters       `json:"link"`
			Journal      *journalStats      `json:"journal,omitempty"`
		}
		ph := make(map[int]peerHealth)
		for id, h := range s.member.PeerHealth() {
			ph[id] = peerHealth{
				State:          h.State,
				QueueLen:       h.QueueLen,
				QueueHighWater: h.QueueHighWater,
				QueueFullDrops: h.QueueFullDrops,
			}
		}
		lc := s.member.LinkCounters()
		out := stats{
			MemberID:     s.member.ID(),
			Acquires:     st.Acquires,
			SharedJoins:  st.SharedJoins,
			MessagesSent: s.member.MessagesSent(),
			PeerHealth:   ph,
			Link: linkCounters{
				Redials:        lc.Redials,
				Retransmits:    lc.Retransmits,
				DupsSuppressed: lc.DupsSuppressed,
			},
		}
		if js, ok := s.member.JournalStats(); ok {
			j := journalStats{
				Records:   js.Records,
				WALBytes:  js.WALBytes,
				Fsyncs:    js.Fsyncs,
				Snapshots: js.Snapshots,
				Locks:     js.Locks,
			}
			if js.Fsyncs > 0 {
				j.MeanFsyncMS = float64(js.FsyncTime) / float64(js.Fsyncs) / float64(time.Millisecond)
			}
			out.Journal = &j
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if s.Registry == nil {
			http.Error(w, "no metrics registry attached", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if s.Trace == nil {
			http.Error(w, "no trace recorder attached", http.StatusServiceUnavailable)
			return
		}
		switch r.URL.Query().Get("enable") {
		case "on":
			s.Trace.SetEnabled(true)
		case "off":
			s.Trace.SetEnabled(false)
		}
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.localDump(n))
	})
	mux.HandleFunc("/debug/audit", func(w http.ResponseWriter, r *http.Request) {
		if s.Audit == nil {
			http.Error(w, "no auditor attached", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Audit.Snapshot())
	})
	mux.HandleFunc("/debug/locks", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.inventory())
	})
	mux.HandleFunc("/debug/blackbox", func(w http.ResponseWriter, r *http.Request) {
		if s.Blackbox == nil {
			http.Error(w, "no flight recorder attached", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if name := r.URL.Query().Get("dump"); name != "" {
			if s.BlackboxDir == "" {
				http.Error(w, "no blackbox dump directory configured", http.StatusServiceUnavailable)
				return
			}
			d, err := introspect.ReadDump(s.BlackboxDir, name)
			if err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			_ = enc.Encode(d)
			return
		}
		if r.URL.Query().Get("trigger") != "" {
			// A dump pulls nothing (it can fire inside a tap): pull in the
			// grants the member still has staged first.
			s.Trace.Pull()
			if _, err := s.Blackbox.TriggerDump(introspect.ReasonManual); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		st := s.Blackbox.Stats()
		view := BlackboxView{
			Node:   s.member.ID(),
			Events: st.Events,
			Dumps:  st.Dumps,
			Ring:   s.Blackbox.Snapshot(n),
		}
		if st.LastErr != nil {
			view.LastDumpErr = st.LastErr.Error()
		}
		if s.BlackboxDir != "" {
			files, err := introspect.ListDumps(s.BlackboxDir)
			if err != nil {
				view.LastDumpErr = err.Error()
			}
			view.Files = files
		}
		_ = enc.Encode(view)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// localDump captures this node's trace buffer, stamped with the member's
// node identity so cluster merges can attribute (and deduplicate) it.
func (s *Server) localDump(n int) trace.Dump {
	d := s.Trace.DumpLast(n)
	d.Node = proto.NodeID(s.member.ID())
	return d
}

// HealthView is the /debug/health response: the watchdog's current
// verdict with its structured reasons and per-state transition counts.
type HealthView struct {
	Node        int               `json:"node"`
	State       string            `json:"state"`
	Reasons     []watchdog.Reason `json:"reasons,omitempty"`
	Transitions map[string]uint64 `json:"transitions"`
}

// ProfileView is the /debug/profile response: the profiler's counters
// and the capture files on disk (Captured names any files this request
// just wrote).
type ProfileView struct {
	Node       int               `json:"node"`
	Dir        string            `json:"dir"`
	Captures   map[string]uint64 `json:"captures"`
	Suppressed uint64            `json:"suppressed"`
	Captured   []string          `json:"captured,omitempty"`
	CaptureErr string            `json:"capture_err,omitempty"`
	LastErr    string            `json:"last_err,omitempty"`
	Files      []profile.File    `json:"files,omitempty"`
}

// BlackboxView is the /debug/blackbox response: the flight recorder's
// counters, its retained ring, and the dump files on disk.
type BlackboxView struct {
	Node        int                    `json:"node"`
	Events      uint64                 `json:"events"`
	Dumps       map[string]uint64      `json:"dumps"`
	LastDumpErr string                 `json:"last_dump_err,omitempty"`
	Ring        []introspect.DumpEvent `json:"ring"`
	Files       []introspect.DumpFile  `json:"files,omitempty"`
}

// inventory is the member's lock inventory plus the session tier's
// named sessions, when the session manager has been started (it is not
// created just to report itself empty).
func (s *Server) inventory() introspect.NodeInventory {
	inv := s.member.Inventory()
	s.mu.Lock()
	mgr := s.sess
	s.mu.Unlock()
	if mgr == nil {
		return inv
	}
	for _, info := range mgr.Snapshot() {
		si := introspect.SessionInfo{
			Name:            info.Name,
			Attached:        info.Attached,
			TTLMillis:       info.TTL.Milliseconds(),
			ExpiresInMillis: info.ExpiresIn.Milliseconds(),
		}
		for _, h := range info.Locks {
			si.Locks = append(si.Locks, introspect.SessionLock{
				Key: h.Key, Mode: h.Mode, Fence: h.Fence})
		}
		inv.Sessions = append(inv.Sessions, si)
	}
	return inv
}

// DebugURL is the URL of path on a debug listener given as host:port or
// as a full http:// URL.
func DebugURL(addr, path string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimSuffix(addr, "/") + path
}

// GetJSON fetches path from a node's debug listener and decodes the JSON
// body into v. Any status but 200 is an error carrying the status and the
// first 512 bytes of the body; the body is still decoded into v if it
// parses, because /debug/health answers 503 with its verdict. Every
// lockctl subcommand that talks to the debug listener fetches through it.
func GetJSON(client *http.Client, addr, path string, v any) error {
	url := DebugURL(addr, path)
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		_ = json.Unmarshal(body, v)
		return fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body[:min(len(body), 512)])))
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("%s: %w", url, err)
	}
	return nil
}

// FetchAll fetches path from every listed debug listener and decodes each
// answer into a T, in list order. A listener that cannot be fetched is
// left out and its error kept in errs under its address, so a cluster
// view built from the rest is partial, not lost.
func FetchAll[T any](client *http.Client, addrs []string, path string) (got []T, errs map[string]string) {
	for _, addr := range addrs {
		var v T
		if err := GetJSON(client, addr, path, &v); err != nil {
			if errs == nil {
				errs = make(map[string]string)
			}
			errs[addr] = err.Error()
			continue
		}
		got = append(got, v)
	}
	return got, errs
}
