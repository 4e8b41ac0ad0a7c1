package hierlock_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"hierlock"
	"hierlock/internal/audit"
	"hierlock/internal/metrics"
	"hierlock/internal/trace"
)

// bootDurableMember starts one member of a durable recovery cluster:
// journal under dataDir, failure detector and crash recovery on
// aggressive test timings, default (batched) fsync policy. tel, when
// non-nil, is attached before the transport starts: a restarted member
// begins its cold-start round inside NewTCPMember, and a cluster-wide
// auditor must see those sends to match them with their deliveries.
func bootDurableMember(t *testing.T, id int, addrs map[int]string, dataDir string, tel *hierlock.Telemetry) *hierlock.Member {
	t.Helper()
	peers := make(map[int]string, len(addrs)-1)
	for j, a := range addrs {
		if j != id {
			peers[j] = a
		}
	}
	m, err := hierlock.NewTCPMember(hierlock.TCPMemberConfig{
		ID:                id,
		ListenAddr:        addrs[id],
		Peers:             peers,
		DataDir:           dataDir,
		HeartbeatInterval: 25 * time.Millisecond,
		ConfirmAfter:      500 * time.Millisecond,
		RecoveryTimeout:   30 * time.Second,
		Telemetry:         tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// reserveAddrs picks n free loopback addresses a restarted cluster can
// come back on. The ports lie below the kernel's ephemeral range: a
// port handed out by a ":0" listener returns to that pool once the
// listener closes, where any outbound connection of the process can
// draw it as its source port and keep it for as long as it lives.
func reserveAddrs(t testing.TB, n int) map[int]string {
	t.Helper()
	addrs := make(map[int]string, n)
	for port := 20000 + rand.Intn(8000); len(addrs) < n; port++ {
		if port >= 32000 {
			t.Fatal("no free loopback port below the ephemeral range")
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		_ = ln.Close()
		addrs[len(addrs)] = addr
	}
	return addrs
}

// TestTCPColdStartFromJournals is the PR's acceptance test: a durable
// cluster runs a workload that moves tokens around, loses one member
// mid-flight (forcing a regeneration round at a fresh epoch), then the
// WHOLE cluster goes down. Every member restarts from its journal on
// the same address, the cold-start reconciliation converges the
// replayed states onto one consistent epoch above the pre-crash
// maximum, and all N members serve lock traffic again with zero audit
// violations and no lock stuck at epoch 0.
func TestTCPColdStartFromJournals(t *testing.T) {
	const n = 3
	dataDir := t.TempDir()
	addrs := reserveAddrs(t, n)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Phase 1: durable cluster under load. Both resources change token
	// owner on every iteration, so every member journals grants,
	// releases and token arrivals.
	members := make([]*hierlock.Member, n)
	for i := 0; i < n; i++ {
		members[i] = bootDurableMember(t, i, addrs, dataDir, nil)
	}
	for round := 0; round < 2; round++ {
		for _, m := range members {
			for _, res := range []string{"cold-a", "cold-b"} {
				l, err := m.Lock(ctx, res, hierlock.W)
				if err != nil {
					t.Fatalf("phase 1 member %d lock %s: %v", m.ID(), res, err)
				}
				if err := l.Unlock(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Member 2 dies holding W on cold-a (token and hold die with it);
	// the survivors regenerate at a fresh epoch and keep serving.
	if _, err := members[2].Lock(ctx, "cold-a", hierlock.W); err != nil {
		t.Fatal(err)
	}
	if err := members[2].Close(); err != nil {
		t.Fatal(err)
	}
	var preEpoch uint32
	for _, i := range []int{0, 1} {
		l, err := members[i].Lock(ctx, "cold-a", hierlock.W)
		if err != nil {
			t.Fatalf("survivor %d after crash: %v", i, err)
		}
		if err := l.Unlock(); err != nil {
			t.Fatal(err)
		}
		if e := members[i].EpochOf("cold-a"); e > preEpoch {
			preEpoch = e
		}
	}
	if preEpoch == 0 {
		t.Fatal("no regeneration round before the cold start — test precondition broken")
	}

	// Phase 2: the whole cluster goes down.
	for _, i := range []int{0, 1} {
		if err := members[i].Err(); err != nil {
			t.Fatalf("member %d protocol error before shutdown: %v", i, err)
		}
		if err := members[i].Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 3: cold start — every member restarts from its journal on
	// its old address, with one online auditor watching the whole
	// rebuilt cluster (every member's recorder taps into it, so it sees
	// both ends of each token transfer).
	auditor := audit.New(audit.Config{Registry: metrics.NewRegistry(), Root: 0})
	for i := 0; i < n; i++ {
		rec := trace.New(1 << 14)
		rec.SetTap(auditor.Record)
		members[i] = bootDurableMember(t, i, addrs, dataDir,
			&hierlock.Telemetry{Registry: metrics.NewRegistry(), Trace: rec})
	}
	t.Cleanup(func() {
		for _, m := range members {
			_ = m.Close()
		}
	})

	// Every member — including the one that died before the last
	// regeneration round — must serve both resources again.
	for _, m := range members {
		for _, res := range []string{"cold-a", "cold-b"} {
			l, err := m.Lock(ctx, res, hierlock.W)
			if err != nil {
				t.Fatalf("cold-started member %d lock %s: %v", m.ID(), res, err)
			}
			if err := l.Unlock(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The rebuilt world is consistent: every member converged onto one
	// epoch per lock, above the pre-crash maximum, nothing stuck at 0.
	for _, res := range []string{"cold-a", "cold-b"} {
		var epoch uint32
		for _, m := range members {
			e := m.EpochOf(res)
			if e == 0 {
				t.Fatalf("member %d lock %s stuck at epoch 0 after cold start", m.ID(), res)
			}
			if epoch == 0 {
				epoch = e
			} else if e != epoch {
				t.Fatalf("lock %s: member %d at epoch %d, others at %d — cold start did not converge", res, m.ID(), e, epoch)
			}
		}
	}
	if e := members[0].EpochOf("cold-a"); e <= preEpoch {
		t.Fatalf("cold-a resumed at epoch %d, want > pre-crash max %d", e, preEpoch)
	}
	for i, m := range members {
		if err := m.Err(); err != nil {
			t.Fatalf("member %d protocol error after cold start: %v", i, err)
		}
		if js, ok := m.JournalStats(); !ok || js.Records == 0 {
			t.Fatalf("member %d journaled nothing after cold start (ok=%v stats=%+v)", i, ok, js)
		}
	}
	if v := auditor.Violations(); v != 0 {
		t.Fatalf("auditor flagged %d violations after cold start: %+v", v, auditor.Snapshot().Violations)
	}
}

// TestTCPRestartSingleMemberRejoins covers the narrower restart the
// issue calls out: one member restarts from its journal while the rest
// of the cluster kept running, answers recovery probes from replayed
// state (rejoining at max(journaled epoch)+1 via the cold-start round)
// instead of nominating at epoch 0, and serves traffic again.
func TestTCPRestartSingleMemberRejoins(t *testing.T) { testRestartRejoins(t, 0) }

// TestTCPRestartAfterTrafficRejoins is the same restart after the member
// has talked: 1000 ping-pong rounds leave each survivor holding a link
// sequence number in the thousands for member 2, and the rebooted member,
// numbering afresh, must not be taken for its own retransmissions — its
// first remote acquisition is granted within seconds.
func TestTCPRestartAfterTrafficRejoins(t *testing.T) { testRestartRejoins(t, 1000) }

// testRestartRejoins runs the single-member restart after rounds remote
// acquisitions by the member that will die, alternating with member 0.
func testRestartRejoins(t *testing.T, rounds int) {
	const n = 3
	dataDir := t.TempDir()
	addrs := reserveAddrs(t, n)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	members := make([]*hierlock.Member, n)
	for i := 0; i < n; i++ {
		members[i] = bootDurableMember(t, i, addrs, dataDir, nil)
	}
	t.Cleanup(func() {
		for _, m := range members {
			_ = m.Close()
		}
	})
	for r := 0; r < rounds; r++ {
		for _, i := range []int{2, 0} {
			l, err := members[i].Lock(ctx, "rejoin-res", hierlock.W)
			if err != nil {
				t.Fatalf("round %d, member %d: %v", r, i, err)
			}
			if err := l.Unlock(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Member 2 takes the token for the resource, then dies with it.
	if _, err := members[2].Lock(ctx, "rejoin-res", hierlock.W); err != nil {
		t.Fatal(err)
	}
	if err := members[2].Close(); err != nil {
		t.Fatal(err)
	}
	// Survivors regenerate and keep going.
	for _, i := range []int{0, 1} {
		l, err := members[i].Lock(ctx, "rejoin-res", hierlock.W)
		if err != nil {
			t.Fatalf("survivor %d: %v", i, err)
		}
		if err := l.Unlock(); err != nil {
			t.Fatal(err)
		}
	}
	// The crashed member restarts from its journal and must become a
	// full participant again: its journaled token claim for rejoin-res
	// is stale (the survivors' epoch fences it), the cold-start
	// reconciliation catches it up, and its acquisitions serve.
	members[2] = bootDurableMember(t, 2, addrs, dataDir, nil)
	rejoin, cancelRejoin := context.WithTimeout(ctx, 5*time.Second)
	defer cancelRejoin()
	l, err := members[2].Lock(rejoin, "rejoin-res", hierlock.W)
	if err != nil {
		t.Fatalf("restarted member rejoin: %v (member 0 suppressed %d frames as duplicates)",
			err, members[0].LinkCounters().DupsSuppressed)
	}
	if err := l.Unlock(); err != nil {
		t.Fatal(err)
	}
	if e := members[2].EpochOf("rejoin-res"); e == 0 {
		t.Fatal("restarted member still at epoch 0 — journal replay or catch-up failed")
	}
	for i, m := range members {
		if err := m.Err(); err != nil {
			t.Fatalf("member %d protocol error: %v", i, err)
		}
	}
}

// TestTCPColdStartResidentLockFences pins the one consumer hold records
// have on replay: membership in the replayed set. A lock only ever held
// at its static root never moves its token and never changes epoch, so
// its first grant is the only reason it is in the journal at all — and
// without it a full-cluster restart skips the lock's cold-start round,
// the epoch stays 0, the Lamport clock restarts, and fences go
// backwards. One record buys that; the other 49 grants write nothing.
func TestTCPColdStartResidentLockFences(t *testing.T) {
	const n = 3
	dataDir := t.TempDir()
	addrs := reserveAddrs(t, n)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	members := make([]*hierlock.Member, n)
	boot := func() {
		for i := range members {
			members[i] = bootDurableMember(t, i, addrs, dataDir, nil)
		}
	}
	boot()
	t.Cleanup(func() {
		for _, m := range members {
			_ = m.Close()
		}
	})
	var pre hierlock.FenceToken
	for i := 0; i < 50; i++ {
		l, err := members[0].Lock(ctx, "resident", hierlock.W)
		if err != nil {
			t.Fatal(err)
		}
		pre = l.Fence()
		if err := l.Unlock(); err != nil {
			t.Fatal(err)
		}
	}
	if js, _ := members[0].JournalStats(); js.Records != 1 {
		t.Fatalf("50 resident acquisitions journaled %d records, want the first grant's only", js.Records)
	}
	for _, m := range members {
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}

	boot()
	l, err := members[0].Lock(ctx, "resident", hierlock.W)
	if err != nil {
		t.Fatalf("lock after restart: %v", err)
	}
	post := l.Fence()
	if err := l.Unlock(); err != nil {
		t.Fatal(err)
	}
	if !pre.Less(post) {
		t.Fatalf("fence went backwards across the restart: %v before, %v after", pre, post)
	}
	if e := members[0].EpochOf("resident"); e == 0 {
		t.Fatal("resident lock still at epoch 0 after the restart: its cold-start round never ran")
	}
}

// TestJournalRecordsFollowTokenNotHolds pins what the grant path writes:
// nothing for a hold on a resident token after the lock's first grant,
// one record at each end of a token transfer.
func TestJournalRecordsFollowTokenNotHolds(t *testing.T) {
	dataDir := t.TempDir()
	addrs := reserveAddrs(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var members [2]*hierlock.Member
	for i := range members {
		members[i] = bootDurableMember(t, i, addrs, dataDir, nil)
	}
	t.Cleanup(func() {
		for _, m := range members {
			_ = m.Close()
		}
	})
	var want [2]uint64
	step := func(what string, holder, pairs int, wrote ...int) {
		t.Helper()
		for i := 0; i < pairs; i++ {
			l, err := members[holder].Lock(ctx, "token-follows", hierlock.W)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if err := l.Unlock(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		for _, m := range wrote {
			want[m]++
		}
		for i, m := range members {
			if js, _ := m.JournalStats(); js.Records != want[i] {
				t.Fatalf("%s: member %d has journaled %d records, want %d", what, i, js.Records, want[i])
			}
		}
	}
	step("first grant at the root", 0, 1, 0)
	step("resident holds", 0, 1000)
	step("token leaves the root", 1, 1, 0, 1)
	step("resident holds away from the root", 1, 1000)
	step("token returns", 0, 1, 1, 0)
	for i, m := range members {
		if err := m.Err(); err != nil {
			t.Fatalf("member %d protocol error: %v", i, err)
		}
	}
}
