package hierlock_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"hierlock"
	"hierlock/internal/introspect"
)

func TestLockAllBasic(t *testing.T) {
	c := newCluster(t, 2)
	ctx := context.Background()
	ls, err := c.Member(1).LockAll(ctx, []string{"a", "b", "c"}, hierlock.W)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Len() != 3 {
		t.Fatalf("len = %d", ls.Len())
	}
	// All three are exclusively held: a W from another member blocks.
	cctx, cancel := context.WithTimeout(ctx, 150*time.Millisecond)
	defer cancel()
	if _, err := c.Member(0).Lock(cctx, "b", hierlock.W); err == nil {
		t.Fatal("b should be held")
	}
	if err := ls.Unlock(); err != nil {
		t.Fatal(err)
	}
	// Now free.
	w, err := c.Member(0).Lock(ctx, "b", hierlock.W)
	if err != nil {
		t.Fatal(err)
	}
	_ = w.Unlock()
}

func TestLockAllDeduplicates(t *testing.T) {
	c := newCluster(t, 1)
	ls, err := c.Member(0).LockAll(context.Background(), []string{"x", "x", "y", "x"}, hierlock.R)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Len() != 2 {
		t.Fatalf("len = %d, want 2 (deduplicated)", ls.Len())
	}
	if err := ls.Unlock(); err != nil {
		t.Fatal(err)
	}
}

func TestLockAllEmpty(t *testing.T) {
	c := newCluster(t, 1)
	if _, err := c.Member(0).LockAll(context.Background(), nil, hierlock.R); err == nil {
		t.Fatal("empty set must fail")
	}
}

// TestLockAllNoDeadlock is the point of the canonical ordering: many
// members grab overlapping resource sets listed in conflicting orders;
// every call must complete.
func TestLockAllNoDeadlock(t *testing.T) {
	const nodes = 5
	c := newCluster(t, nodes)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	resources := []string{"r0", "r1", "r2", "r3"}
	var wg sync.WaitGroup
	for i := 0; i < nodes; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := 0; op < 8; op++ {
				// Rotate the listing order per member and op so naive
				// in-order acquisition would deadlock.
				set := make([]string, len(resources))
				for j := range resources {
					set[j] = resources[(i+op+j)%len(resources)]
				}
				ls, err := c.Member(i).LockAll(ctx, set, hierlock.W)
				if err != nil {
					t.Errorf("member %d op %d: %v", i, op, err)
					return
				}
				time.Sleep(time.Millisecond)
				if err := ls.Unlock(); err != nil {
					t.Errorf("member %d op %d unlock: %v", i, op, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestLockAllOrderingNoWaitForCycle is the ordering property behind
// TestLockAllNoDeadlock, checked where it holds: two members take random
// overlapping sets of parent and child paths, in R or W, 200 seeded
// rounds. Every round finishes, and once one member holds its whole set
// (or after a second, when neither does) the wait-for graph over both
// inventories has no cycle, sampled until the other member holds its set
// too or is seen waiting. Nothing is released before that sample, so
// each member's inventory is a state it passed through.
func TestLockAllOrderingNoWaitForCycle(t *testing.T) {
	const seed, rounds = 1, 200
	paths := []string{"db", "db/fares", "db/fares/row1", "db/fares/row2", "db/fares/row3",
		"db/seats", "db/seats/row1", "db/seats/row2"}
	rng := rand.New(rand.NewPCG(seed, seed))
	c := newCluster(t, 2)
	edges := 0
	for round := 0; round < rounds; round++ {
		var sets [2][]string
		var mode [2]hierlock.Mode
		for i := range sets {
			for _, j := range rng.Perm(len(paths))[:2+rng.IntN(4)] {
				sets[i] = append(sets[i], paths[j])
			}
			mode[i] = hierlock.W
			if rng.IntN(3) == 0 {
				mode[i] = hierlock.R
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		held := make(chan error, 2)
		release := make(chan struct{})
		var wg sync.WaitGroup
		for i := range sets {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ls, err := c.Member(i).LockAll(ctx, sets[i], mode[i])
				held <- err
				if err != nil {
					return
				}
				<-release
				if err := ls.Unlock(); err != nil {
					t.Errorf("round %d: member %d unlock: %v", round, i, err)
				}
			}(i)
		}
		var errs []error
		select {
		case err := <-held:
			errs = append(errs, err)
		case <-time.After(time.Second):
		}
		// The other member may not have asked yet: sample until it holds
		// its set too, is seen waiting, or a second has passed.
		var wf introspect.WaitFor
		for deadline := time.Now().Add(time.Second); ; time.Sleep(50 * time.Microsecond) {
			wf = introspect.BuildWaitFor([]introspect.NodeInventory{c.Member(0).Inventory(), c.Member(1).Inventory()})
			if wf.Deadlocked() {
				t.Errorf("seed %d round %d: sets %v in %v form a wait-for cycle %v: %+v", seed, round, sets, mode, wf.Cycles, wf.Edges)
			}
			if len(errs) != 1 || len(wf.Edges) > 0 || time.Now().After(deadline) {
				break
			}
			select {
			case err := <-held:
				errs = append(errs, err)
			default:
			}
		}
		edges += len(wf.Edges)
		close(release)
		for len(errs) < 2 {
			errs = append(errs, <-held)
		}
		wg.Wait()
		cancel()
		if errs[0] != nil || errs[1] != nil {
			t.Fatalf("seed %d round %d: sets %v in %v did not finish: %v", seed, round, sets, mode, errs)
		}
	}
	t.Logf("seed %d: %d wait-for edges sampled over %d rounds", seed, edges, rounds)
	if edges == 0 {
		t.Fatal("no sample caught a member waiting on the other: the test is not exercising the ordering")
	}
}

func TestLockAllReleasesOnFailure(t *testing.T) {
	c := newCluster(t, 2)
	ctx := context.Background()
	// Hold one of the set exclusively so LockAll stalls mid-way.
	blocker, err := c.Member(0).Lock(ctx, "mid", hierlock.W)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	defer cancel()
	if _, err := c.Member(1).LockAll(cctx, []string{"early", "mid", "late"}, hierlock.W); err == nil {
		t.Fatal("should have timed out on the blocked resource")
	}
	_ = blocker.Unlock()
	// Everything must be free again.
	for _, res := range []string{"early", "mid", "late"} {
		wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
		l, err := c.Member(0).Lock(wctx, res, hierlock.W)
		wcancel()
		if err != nil {
			t.Fatalf("resource %q leaked: %v", res, err)
		}
		_ = l.Unlock()
	}
}

// ExampleMember_LockAll demonstrates deadlock-free multi-resource
// locking.
func ExampleMember_LockAll() {
	cluster, _ := hierlock.NewCluster(2)
	defer cluster.Close()

	// Both members list the accounts in different orders; the canonical
	// internal ordering makes this safe.
	var wg sync.WaitGroup
	for i, set := range [][]string{
		{"accounts/alice", "accounts/bob"},
		{"accounts/bob", "accounts/alice"},
	} {
		i, set := i, set
		wg.Add(1)
		go func() {
			defer wg.Done()
			ls, err := cluster.Member(i).LockAll(context.Background(), set, hierlock.W)
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			defer ls.Unlock()
			// transfer between the two accounts atomically…
		}()
	}
	wg.Wait()
	fmt.Println("both transfers completed without deadlock")
	// Output: both transfers completed without deadlock
}
