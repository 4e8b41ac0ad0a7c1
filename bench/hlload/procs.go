package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// The real-process cross-check: the same hot-key workload against three
// lockd processes started with the flags the in-process wiring mirrors.
// It states the process-boundary gap instead of hiding it; on a 2-core
// box that gap is mostly the OS placing four processes on two cores.

// procCluster is three running lockd processes under one temp dir.
type procCluster struct {
	dir     string
	cmds    []*exec.Cmd
	clients []string // client (line protocol) addresses, by member id
}

// buildLockd compiles cmd/lockd from the benchmark's module into dir.
func buildLockd(ctx context.Context, moduleDir, dir string) (string, error) {
	bin := filepath.Join(dir, "lockd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "hierlock/cmd/lockd")
	cmd.Dir = moduleDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build hierlock/cmd/lockd: %w: %s", err, strings.TrimSpace(string(out)))
	}
	return bin, nil
}

// startProcs launches three lockd processes on reserved loopback ports
// and waits until every client port accepts.
func startProcs(ctx context.Context, bin, dir string) (*procCluster, error) {
	addrs, err := reservePorts(6)
	if err != nil {
		return nil, err
	}
	peer, client := addrs[:3], addrs[3:]
	pc := &procCluster{dir: dir, clients: client}
	for i := 0; i < 3; i++ {
		var peers []string
		for j, a := range peer {
			if j != i {
				peers = append(peers, fmt.Sprintf("%d=%s", j, a))
			}
		}
		abs, err := filepath.Abs(bin)
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(abs,
			"-id", fmt.Sprint(i), "-listen", peer[i], "-client", client[i],
			"-peers", strings.Join(peers, ","),
			"-data-dir", filepath.Join(dir, fmt.Sprintf("node%d", i)),
			"-reliable", "-heartbeat", heartbeatInterval.String())
		if err := cmd.Start(); err != nil {
			pc.stop()
			return nil, fmt.Errorf("start lockd %d: %w", i, err)
		}
		pc.cmds = append(pc.cmds, cmd)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, a := range client {
		for {
			conn, err := net.DialTimeout("tcp", a, time.Second)
			if err == nil {
				conn.Close()
				break
			}
			if time.Now().After(deadline) || ctx.Err() != nil {
				pc.stop()
				return nil, fmt.Errorf("lockd client port %s never came up: %w", a, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return pc, nil
}

// stop terminates and reaps every child: SIGTERM first (lockd drains its
// sessions), SIGKILL for any that outlives the grace period.
func (pc *procCluster) stop() {
	for _, cmd := range pc.cmds {
		_ = cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, cmd := range pc.cmds {
		done := make(chan struct{})
		go func(cmd *exec.Cmd) {
			_ = cmd.Wait() // a signalled exit is the expected outcome
			close(done)
		}(cmd)
		select {
		case <-done:
		case <-time.After(3 * time.Second):
			_ = cmd.Process.Kill()
			<-done
		}
	}
	pc.cmds = nil
}

// runProcs measures hot-key against real lockd processes. A failure to
// build, bind or start is reported as a skip reason (the metrics stay 0),
// not an error: the cross-check is a courtesy figure. A run that did
// happen and broke mutual exclusion is an error like any other.
func runProcs(ctx context.Context, moduleDir string, seed int64, measured time.Duration, out map[string]float64) (skipped string, err error) {
	out["procs.ops_per_s"], out["procs.lock_p50_us"] = 0, 0
	dir, err := os.MkdirTemp("", "hlload-procs-")
	if err != nil {
		return err.Error(), nil
	}
	defer os.RemoveAll(dir)
	bin, err := buildLockd(ctx, moduleDir, dir)
	if err != nil {
		return err.Error(), nil
	}
	pc, err := startProcs(ctx, bin, dir)
	if err != nil {
		return err.Error(), nil
	}
	defer pc.stop()
	res, err := runWorkload(ctx, runSpec{
		workload: wlHotKey, seed: seed, cycles: cyclesFor(measured),
		warmup: warmupOps / 10, addrs: pc.clients,
	})
	if err != nil {
		return "", fmt.Errorf("real-process cross-check: %w", err)
	}
	if !res.correct() {
		return "", fmt.Errorf("real-process cross-check: %d ops failed: %v", res.failed, res.problems)
	}
	out["procs.ops_per_s"] = res.opsPerS()
	out["procs.lock_p50_us"] = res.p50US()
	return "", nil
}
