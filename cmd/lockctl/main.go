// Command lockctl is a client for lockd's text protocol.
//
// One-shot (acquire, hold, release):
//
//	lockctl -addr host:8400 lock fares/row17 W -hold 2s
//
// Query commands:
//
//	lockctl -addr host:8400 stats
//	lockctl -addr host:8400 held
//
// Interactive (raw protocol pass-through):
//
//	lockctl -addr host:8400 -i
//
// Trace inspection (talks to lockd's -debug HTTP listener, not the text
// protocol): fetch one node's protocol trace and print each operation's
// causal path, keyed by the trace IDs the wire protocol propagates —
// its message hops, the token's travel among them:
//
//	lockctl trace -debug host:9400 -n 500 -v
//
// Cluster mode fetches every listed node's buffer and merges them, so
// each path covers every node the operation touched (request hops,
// freezes, the grant or token travelling back):
//
//	lockctl trace --cluster -debug h1:9400,h2:9401,h3:9402
//	lockctl trace --cluster -debug h1:9400 -remote   # let h1 fetch its peers
//
// Lock introspection (also over the -debug listener): dump one node's
// lock inventory, or merge every node's into the cluster view with the
// cluster-wide wait-for graph and deadlock cycles flagged, or rank
// locks by contention:
//
//	lockctl locks -debug h1:9400
//	lockctl locks --cluster -debug h1:9400,h2:9401,h3:9402
//	lockctl top -debug h1:9400,h2:9401,h3:9402
//
// Client sessions: list each node's named sessions (lease state, held
// locks with fencing tokens):
//
//	lockctl sessions -debug h1:9400,h2:9401
//
// Flight recorder: show the black-box ring and the dump files written
// on audit violations, recovery rounds and lost locks; retrieve one:
//
//	lockctl blackbox -debug h1:9400
//	lockctl blackbox -debug h1:9400 -dump 1723100000000000000-audit_violation.json
//
// Continuous profiling: list captured profiles, force a capture, or
// fetch one profile file from a node:
//
//	lockctl profile -debug h1:9400
//	lockctl profile -debug h1:9400 -capture cpu
//	lockctl profile -debug h1:9400 -fetch 1723100000000000000-heap.pprof -o heap.pprof
//
// Cluster health: one-shot or live watch of every node's stall
// watchdog verdict:
//
//	lockctl watch -debug h1:9400,h2:9401,h3:9402
//	lockctl watch -debug h1:9400,h2:9401,h3:9402 -interval 2s
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"hierlock/internal/introspect"
	"hierlock/internal/lockserver"
	"hierlock/internal/proto"
	"hierlock/internal/trace"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8400", "lockd client address")
		interactive = flag.Bool("i", false, "interactive mode: pass stdin lines through")
		hold        = flag.Duration("hold", 0, "how long to hold a lock before releasing (lock command)")
		timeout     = flag.Duration("timeout", 10*time.Second, "dial timeout")
	)
	flag.Parse()

	// The introspection subcommands talk HTTP to the debug listener;
	// dispatch them before dialing the text protocol.
	if args := flag.Args(); len(args) > 0 {
		switch strings.ToLower(args[0]) {
		case "trace":
			traceCmd(args[1:])
			return
		case "locks":
			locksCmd(args[1:], false)
			return
		case "top":
			locksCmd(args[1:], true)
			return
		case "blackbox":
			blackboxCmd(args[1:])
			return
		case "profile":
			profileCmd(args[1:])
			return
		case "watch":
			watchCmd(args[1:])
			return
		case "sessions":
			sessionsCmd(args[1:])
			return
		}
	}

	conn, err := net.DialTimeout("tcp", *addr, *timeout)
	if err != nil {
		fatalf("dial %s: %v", *addr, err)
	}
	defer conn.Close()
	rd := bufio.NewScanner(conn)

	send := func(line string) string {
		if _, err := fmt.Fprintln(conn, line); err != nil {
			fatalf("send: %v", err)
		}
		if !rd.Scan() {
			fatalf("connection closed: %v", rd.Err())
		}
		return rd.Text()
	}

	if *interactive {
		in := bufio.NewScanner(os.Stdin)
		for in.Scan() {
			line := strings.TrimSpace(in.Text())
			if line == "" {
				continue
			}
			resp := send(line)
			fmt.Println(resp)
			if strings.EqualFold(line, "quit") {
				return
			}
		}
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		fatalf("usage: lockctl [-addr A] lock <resource> <mode> [-hold D] | unlock <resource> | upgrade <resource> | held | stats | member list|add <seed-addr>|remove | trace|locks|top|sessions|blackbox|profile|watch [-debug A]")
	}
	switch strings.ToLower(args[0]) {
	case "lock":
		if len(args) != 3 {
			fatalf("usage: lockctl lock <resource> <mode>")
		}
		resp := send(fmt.Sprintf("LOCK %s %s", args[1], args[2]))
		fmt.Println(resp)
		if !strings.HasPrefix(resp, "OK") {
			os.Exit(1)
		}
		if *hold > 0 {
			fmt.Fprintf(os.Stderr, "holding %s for %v...\n", args[1], *hold)
			time.Sleep(*hold)
			fmt.Println(send("UNLOCK " + args[1]))
		}
	case "unlock", "upgrade", "held", "stats":
		line := strings.ToUpper(args[0])
		if len(args) > 1 {
			line += " " + strings.Join(args[1:], " ")
		}
		resp := send(line)
		fmt.Println(resp)
		if !strings.HasPrefix(resp, "OK") {
			os.Exit(1)
		}
	case "member":
		// member list | member add <seed-addr> | member remove — runtime
		// membership against the member behind -addr: add makes it join a
		// running cluster via the seed's peer address, remove makes it
		// hand off its tokens and leave. Addresses pass through verbatim.
		if len(args) < 2 {
			fatalf("usage: lockctl member list | member add <seed-addr> | member remove")
		}
		line := "MEMBER " + strings.ToUpper(args[1])
		if len(args) > 2 {
			line += " " + strings.Join(args[2:], " ")
		}
		resp := send(line)
		fmt.Println(resp)
		if !strings.HasPrefix(resp, "OK") {
			os.Exit(1)
		}
	default:
		fatalf("unknown command %q", args[0])
	}
}

// traceCmd fetches /debug/trace from one or more lockd debug listeners
// and prints each operation's causal path, keyed by its trace ID: from
// one node's buffer, or with --cluster from every node's, merged.
func traceCmd(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	var (
		debug   = fs.String("debug", "127.0.0.1:9400", "lockd debug HTTP address (comma-separated list with --cluster)")
		cluster = fs.Bool("cluster", false, "fetch every listed node's buffer and assemble cross-node causal paths")
		remote  = fs.Bool("remote", false, "with --cluster: ask the first node to fetch the rest (server-side peer merge)")
		filter  = fs.String("trace", "", "show only the causal path of this trace ID (e.g. n2.50)")
		n       = fs.Int("n", 0, "fetch only the most recent n entries per node (0 = all retained)")
		verbose = fs.Bool("v", false, "print every retained step of each path")
		timeout = fs.Duration("timeout", 10*time.Second, "HTTP timeout")
	)
	_ = fs.Parse(args)

	client := &http.Client{Timeout: *timeout}
	if *cluster {
		nodes := fetchCluster(client, strings.Split(*debug, ","), *n, *remote)
		shown := printPaths(nodes, *filter, *verbose)
		fmt.Printf("%d node buffers merged, %d causal paths\n", len(nodes), shown)
		return
	}

	var dump trace.Dump
	if err := lockserver.GetJSON(client, *debug, tracePath(*n), &dump); err != nil {
		fatalf("fetch trace: %v", err)
	}
	shown := printPaths([]trace.Dump{dump}, *filter, *verbose)
	state := "live"
	if !dump.Enabled {
		state = "frozen"
	}
	fmt.Printf("%d entries retained (%d evicted), %d causal paths, view %s\n",
		len(dump.Entries), dump.Dropped, shown, state)
}

// fetchCluster gathers every node's buffer — directly, or via the first
// node's server-side peer merge.
func fetchCluster(client *http.Client, addrs []string, n int, remote bool) []trace.Dump {
	var cd trace.ClusterDump
	if remote {
		if len(addrs) == 0 {
			fatalf("--remote needs at least one -debug address")
		}
		path := tracePath(n) + "&peers=" + strings.Join(addrs[1:], ",")
		if err := lockserver.GetJSON(client, addrs[0], path, &cd); err != nil {
			fatalf("fetch cluster trace: %v", err)
		}
	} else {
		cd.Errors = make(map[string]string)
		for _, addr := range addrs {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				continue
			}
			var d trace.Dump
			if err := lockserver.GetJSON(client, addr, tracePath(n), &d); err != nil {
				cd.Errors[addr] = err.Error()
				continue
			}
			cd.Nodes = append(cd.Nodes, d)
		}
	}
	warnUnreachable(cd.Errors, "assembling a partial capture")
	if len(cd.Nodes) == 0 {
		fatalf("no node buffers fetched")
	}
	return cd.Nodes
}

// printPaths assembles the dumps' causal paths and prints them, or only
// the one whose trace ID is filter, and returns how many it printed.
func printPaths(dumps []trace.Dump, filter string, verbose bool) int {
	var want proto.TraceID
	if filter != "" {
		var err error
		if want, err = proto.ParseTraceID(filter); err != nil {
			fatalf("bad -trace %q: %v", filter, err)
		}
	}
	shown := 0
	for _, p := range trace.AssembleCausal(dumps) {
		if filter != "" && p.Trace != want {
			continue
		}
		fmt.Print(p.Format(verbose))
		shown++
	}
	if filter != "" && shown == 0 {
		fatalf("trace %s not found in any fetched buffer", want)
	}
	return shown
}

// tracePath is /debug/trace for the most recent n entries (0 = all).
func tracePath(n int) string { return fmt.Sprintf("/debug/trace?n=%d", n) }

// locksCmd fetches /debug/locks from one or more debug listeners.
// Single-node mode prints the node's inventory; --cluster (or several
// addresses, or the top leaderboard) merges every node's inventory into
// the cluster view, builds the cluster-wide wait-for graph and flags
// deadlock cycles.
// sessionsCmd lists the named client sessions (lease state, held locks
// with fencing tokens) of one or more lockd nodes, from /debug/locks.
func sessionsCmd(args []string) {
	fs := flag.NewFlagSet("sessions", flag.ExitOnError)
	var (
		debug   = fs.String("debug", "127.0.0.1:9400", "lockd debug HTTP address (comma-separated list)")
		asJSON  = fs.Bool("json", false, "print the raw JSON instead of the text report")
		timeout = fs.Duration("timeout", 10*time.Second, "HTTP timeout")
	)
	_ = fs.Parse(args)

	client := &http.Client{Timeout: *timeout}
	addrs := splitAddrs(*debug)
	type nodeSessions struct {
		Node     int                      `json:"node"`
		Sessions []introspect.SessionInfo `json:"sessions"`
	}
	var out []nodeSessions
	errs := map[string]string{}
	for _, addr := range addrs {
		var inv introspect.NodeInventory
		if err := lockserver.GetJSON(client, addr, "/debug/locks", &inv); err != nil {
			errs[addr] = err.Error()
			continue
		}
		out = append(out, nodeSessions{Node: inv.Node, Sessions: inv.Sessions})
	}
	if len(out) == 0 {
		warnUnreachable(errs, "listing a partial view")
		fatalf("no node inventories fetched")
	}
	warnUnreachable(errs, "listing a partial view")
	if *asJSON {
		printJSON(out)
		return
	}
	for _, ns := range out {
		fmt.Printf("node %d: ", ns.Node)
		if len(ns.Sessions) == 0 {
			fmt.Println("no sessions")
			continue
		}
		fmt.Print(introspect.FormatSessions(ns.Sessions))
	}
}

func locksCmd(args []string, top bool) {
	fs := flag.NewFlagSet("locks", flag.ExitOnError)
	var (
		debug   = fs.String("debug", "127.0.0.1:9400", "lockd debug HTTP address (comma-separated list with --cluster)")
		cluster = fs.Bool("cluster", false, "merge every listed node's inventory into the cluster view")
		remote  = fs.Bool("remote", false, "with --cluster: ask the first node to fetch the rest (server-side peer merge)")
		n       = fs.Int("n", 20, "top: show at most n locks (0 = all)")
		asJSON  = fs.Bool("json", false, "print the raw JSON instead of the text report")
		timeout = fs.Duration("timeout", 10*time.Second, "HTTP timeout")
	)
	_ = fs.Parse(args)

	client := &http.Client{Timeout: *timeout}
	addrs := splitAddrs(*debug)
	if !*cluster && !top && len(addrs) == 1 {
		var inv introspect.NodeInventory
		if err := lockserver.GetJSON(client, addrs[0], "/debug/locks", &inv); err != nil {
			fatalf("fetch locks: %v", err)
		}
		if *asJSON {
			printJSON(inv)
			return
		}
		fmt.Print(introspect.FormatNode(inv))
		return
	}

	var c introspect.Cluster
	if *remote {
		path := "/debug/locks?peers=" + strings.Join(addrs[1:], ",")
		if err := lockserver.GetJSON(client, addrs[0], path, &c); err != nil {
			fatalf("fetch cluster locks: %v", err)
		}
	} else {
		var nodes []introspect.NodeInventory
		errs := map[string]string{}
		for _, addr := range addrs {
			var inv introspect.NodeInventory
			if err := lockserver.GetJSON(client, addr, "/debug/locks", &inv); err != nil {
				errs[addr] = err.Error()
				continue
			}
			nodes = append(nodes, inv)
		}
		if len(nodes) == 0 {
			warnUnreachable(errs, "merging a partial view")
			fatalf("no node inventories fetched")
		}
		c = introspect.Merge(nodes)
		if len(errs) > 0 {
			c.Errors = errs
		}
	}
	// Unreachable peers degrade the report, not the exit status: exit 2
	// stays reserved for a detected deadlock so scripts can rely on it.
	warnUnreachable(c.Errors, "merging a partial view")
	switch {
	case *asJSON:
		printJSON(c)
	case top:
		fmt.Print(introspect.FormatTop(c, *n))
	default:
		fmt.Print(introspect.FormatCluster(c))
	}
	if c.WaitFor.Deadlocked() {
		os.Exit(2) // scripting: a detected deadlock cycle is exit status 2
	}
}

// blackboxCmd shows a node's flight recorder: counters, the retained
// event ring, the dump files on disk — or one dump file's contents.
func blackboxCmd(args []string) {
	fs := flag.NewFlagSet("blackbox", flag.ExitOnError)
	var (
		debug   = fs.String("debug", "127.0.0.1:9400", "lockd debug HTTP address")
		n       = fs.Int("n", 25, "show the n most recent ring events (0 = all retained)")
		dump    = fs.String("dump", "", "retrieve and print one dump file by name")
		trigger = fs.Bool("trigger", false, "force a manual dump before reporting")
		asJSON  = fs.Bool("json", false, "print the raw JSON instead of the text report")
		timeout = fs.Duration("timeout", 10*time.Second, "HTTP timeout")
	)
	_ = fs.Parse(args)

	client := &http.Client{Timeout: *timeout}
	if *dump != "" {
		var d introspect.Dump
		if err := lockserver.GetJSON(client, *debug, "/debug/blackbox?dump="+url.QueryEscape(*dump), &d); err != nil {
			fatalf("fetch blackbox: %v", err)
		}
		if *asJSON {
			printJSON(d)
			return
		}
		fmt.Printf("dump %s: node %d, reason %s, %d events\n", *dump, d.Node, d.Reason, len(d.Events))
		for _, e := range d.Events {
			fmt.Println(introspect.FormatDumpEvent(e))
		}
		return
	}

	path := fmt.Sprintf("/debug/blackbox?n=%d", *n)
	if *trigger {
		path += "&trigger=1"
	}
	var view lockserver.BlackboxView
	if err := lockserver.GetJSON(client, *debug, path, &view); err != nil {
		fatalf("fetch blackbox: %v", err)
	}
	if *asJSON {
		printJSON(view)
		return
	}
	fmt.Printf("node %d: %d events recorded\n", view.Node, view.Events)
	reasons := make([]string, 0, len(view.Dumps))
	for r := range view.Dumps {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Printf("  dumps[%s]: %d\n", r, view.Dumps[r])
	}
	if view.LastDumpErr != "" {
		fmt.Printf("  last dump error: %s\n", view.LastDumpErr)
	}
	for _, f := range view.Files {
		fmt.Printf("  file %s (%d bytes, %s)\n", f.Name, f.Size, f.MTime)
	}
	for _, e := range view.Ring {
		fmt.Println(introspect.FormatDumpEvent(e))
	}
}

// profileCmd talks to a node's /debug/profile endpoint: list the
// capture files and counters, force a capture (one kind or "all"), or
// fetch one .pprof file to disk for `go tool pprof`.
func profileCmd(args []string) {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	var (
		debug   = fs.String("debug", "127.0.0.1:9400", "lockd debug HTTP address")
		capture = fs.String("capture", "", "force a capture: cpu, heap, goroutine, mutex, block, or all")
		fetch   = fs.String("fetch", "", "retrieve one capture file by name")
		out     = fs.String("o", "", "with -fetch: write the profile here instead of stdout")
		asJSON  = fs.Bool("json", false, "print the raw JSON instead of the text report")
		timeout = fs.Duration("timeout", 30*time.Second, "HTTP timeout (CPU captures block for the capture duration)")
	)
	_ = fs.Parse(args)

	client := &http.Client{Timeout: *timeout}
	if *fetch != "" {
		// The one answer that is a file, not JSON.
		resp, err := client.Get(lockserver.DebugURL(*debug, "/debug/profile?file="+url.QueryEscape(*fetch)))
		if err != nil {
			fatalf("fetch profile: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			fatalf("fetch profile: %s: %s", resp.Status, strings.TrimSpace(string(body)))
		}
		dst := io.Writer(os.Stdout)
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatalf("create %s: %v", *out, err)
			}
			defer f.Close()
			dst = f
		}
		n, err := io.Copy(dst, resp.Body)
		if err != nil {
			fatalf("fetch %s: %v", *fetch, err)
		}
		if *out != "" {
			fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", *out, n)
		}
		return
	}

	path := "/debug/profile"
	if *capture != "" {
		path += "?capture=" + url.QueryEscape(*capture)
	}
	var view lockserver.ProfileView
	if err := lockserver.GetJSON(client, *debug, path, &view); err != nil {
		fatalf("fetch profile: %v", err)
	}
	if *asJSON {
		printJSON(view)
		return
	}
	fmt.Printf("node %d: profiles in %s\n", view.Node, view.Dir)
	kinds := make([]string, 0, len(view.Captures))
	for k := range view.Captures {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("  captures[%s]: %d\n", k, view.Captures[k])
	}
	if view.Suppressed > 0 {
		fmt.Printf("  suppressed (rate limit): %d\n", view.Suppressed)
	}
	for _, name := range view.Captured {
		fmt.Printf("  captured %s\n", name)
	}
	if view.CaptureErr != "" {
		fmt.Printf("  capture error: %s\n", view.CaptureErr)
	}
	if view.LastErr != "" {
		fmt.Printf("  last error: %s\n", view.LastErr)
	}
	for _, f := range view.Files {
		fmt.Printf("  file %s (%d bytes, %s)\n", f.Name, f.Size, f.MTime)
	}
}

// watchCmd polls every listed node's /debug/health and renders a
// cluster health table. One-shot by default; -interval keeps it live,
// reprinting on each poll until interrupted. Unreachable peers are
// reported in the table rather than aborting the watch.
func watchCmd(args []string) {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	var (
		debug    = fs.String("debug", "127.0.0.1:9400", "comma-separated lockd debug HTTP addresses")
		interval = fs.Duration("interval", 0, "poll every interval (0 = one shot)")
		asJSON   = fs.Bool("json", false, "print raw JSON health verdicts instead of the table")
		timeout  = fs.Duration("timeout", 5*time.Second, "HTTP timeout per node")
	)
	_ = fs.Parse(args)

	client := &http.Client{Timeout: *timeout}
	addrs := splitAddrs(*debug)
	for {
		views := make([]lockserver.HealthView, len(addrs))
		errs := make([]string, len(addrs))
		for i, addr := range addrs {
			v, err := fetchHealth(client, addr)
			if err != nil {
				errs[i] = err.Error()
				continue
			}
			views[i] = v
		}
		if *asJSON {
			printJSON(views)
		} else {
			printHealthTable(addrs, views, errs)
		}
		if *interval <= 0 {
			return
		}
		time.Sleep(*interval)
	}
}

// fetchHealth retrieves one node's watchdog verdict. A 503 carrying a
// decodable verdict (the stalled state) is still a successful fetch.
func fetchHealth(client *http.Client, addr string) (lockserver.HealthView, error) {
	var v lockserver.HealthView
	err := lockserver.GetJSON(client, addr, "/debug/health", &v)
	switch {
	case v.State != "":
		err = nil
	case err == nil:
		err = errors.New("no verdict in the response")
	}
	return v, err
}

// printHealthTable renders one poll's verdicts, one node per line with
// its reason codes, then a one-line cluster summary.
func printHealthTable(addrs []string, views []lockserver.HealthView, errs []string) {
	fmt.Printf("cluster health @ %s\n", time.Now().Format(time.TimeOnly))
	worst := "healthy"
	for i, addr := range addrs {
		if errs[i] != "" {
			fmt.Printf("  %-24s %-10s %s\n", addr, "unknown", errs[i])
			worst = "unknown"
			continue
		}
		v := views[i]
		detail := ""
		if len(v.Reasons) > 0 {
			codes := make([]string, len(v.Reasons))
			for j, r := range v.Reasons {
				codes[j] = r.Code
			}
			detail = strings.Join(codes, ",")
		}
		fmt.Printf("  %-24s %-10s %s\n", addr, v.State, detail)
		if v.State == "stalled" || (v.State == "degraded" && worst == "healthy") {
			worst = v.State
		}
	}
	fmt.Printf("  worst: %s\n", worst)
}

// warnUnreachable prints one stderr warning per unreachable peer so a
// partially-merged report is visibly partial.
func warnUnreachable(errs map[string]string, doing string) {
	peers := make([]string, 0, len(errs))
	for p := range errs {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	for _, p := range peers {
		fmt.Fprintf(os.Stderr, "lockctl: warning: %s unreachable: %s (%s)\n", p, errs[p], doing)
	}
}

// splitAddrs parses a comma-separated -debug list, dropping blanks.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		fatalf("no -debug address given")
	}
	return out
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatalf("encode: %v", err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "lockctl: "+format+"\n", args...)
	os.Exit(1)
}
