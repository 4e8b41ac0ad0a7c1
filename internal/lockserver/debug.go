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

	"hierlock/internal/introspect"
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
//	GET /metrics      → Prometheus text exposition of the attached Registry
//	                   (503 when no registry is attached)
//	GET /debug/trace  → JSON dump of the attached trace Recorder; ?n=K limits
//	                   to the K most recent entries, ?enable=off freezes what
//	                   this endpoint shows (the ring, its taps and incidents
//	                   carry on) until ?enable=on (503 when no recorder is
//	                   attached). `lockctl trace --cluster`
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
//	GET /debug/incidents → JSON: the incidents on disk, with their files,
//	                   and the count written per reason; ?incident=NAME&file=F
//	                   returns one file of one incident.
//	POST /debug/incidents → triggers a manual incident and answers the
//	                   same JSON, naming it (rate-limited). Any other
//	                   method, or a GET asking to trigger, is 405. 503 when
//	                   no recorder is attached.
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
	mux.HandleFunc("/debug/incidents", s.incidents)
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

// IncidentsView is the /debug/incidents response.
type IncidentsView struct {
	Node int    `json:"node"`
	Dir  string `json:"dir"`
	// Written counts the incidents written, by reason.
	Written map[string]uint64 `json:"written"`
	LastErr string            `json:"last_err,omitempty"`
	// Triggered names the incident a POST started ("" when the rate limit
	// suppressed it).
	Triggered string                `json:"triggered,omitempty"`
	Incidents []introspect.Incident `json:"incidents"`
}

// incidents serves /debug/incidents. A GET never writes: only a POST
// triggers, so a crawler or a browser's prefetch cannot.
func (s *Server) incidents(w http.ResponseWriter, r *http.Request) {
	if s.Incidents == nil {
		http.Error(w, "no incident recorder attached", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query()
	var view IncidentsView
	switch {
	case r.Method == http.MethodGet && q.Has("file"):
		data, err := s.Incidents.Read(q.Get("incident"), q.Get("file"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(data)
		return
	case r.Method == http.MethodPost:
		if s.Incidents.Dir() == "" {
			http.Error(w, "no incident directory (lockd writes incidents under -data-dir)", http.StatusServiceUnavailable)
			return
		}
		// An incident pulls nothing (it can fire inside a tap): pull in
		// what the member still stages first.
		s.Trace.Pull()
		path, err := s.Incidents.TriggerDump(introspect.ReasonManual)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if path != "" {
			view.Triggered = filepath.Base(path)
		}
	case r.Method != http.MethodGet || q.Has("trigger"):
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "GET lists incidents, POST triggers one", http.StatusMethodNotAllowed)
		return
	}
	st := s.Incidents.Stats()
	view.Node, view.Dir, view.Written = s.member.ID(), s.Incidents.Dir(), st.Written
	if st.LastErr != nil {
		view.LastErr = st.LastErr.Error()
	}
	list, err := s.Incidents.List()
	if err != nil {
		view.LastErr = err.Error()
	}
	view.Incidents = list
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(view)
}

// inventory is the member's lock inventory plus the session tier's
// named sessions, when the session manager has been started (it is not
// created just to report itself empty).
func (s *Server) inventory() introspect.NodeInventory {
	inv := s.member.Inventory()
	s.mu.Lock()
	sess := s.sess
	s.mu.Unlock()
	if sess == nil {
		return inv
	}
	for _, info := range sess.Snapshot() {
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
