package hierlock

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// TestLockHandleSize: the handle is the one allocation of a resident
// Lock/Unlock pair; at 32 bytes it sits in the 32-byte size class.
func TestLockHandleSize(t *testing.T) {
	if n := unsafe.Sizeof(Lock{}); n > 32 {
		t.Fatalf("Lock is %d bytes, want at most 32", n)
	}
}

// TestHandleGrantEventsWithoutMutex: Mode and Fence take no mutex — a
// handle's grant events are immutable records published through one
// atomic pointer — so readers spinning on them while Upgrade runs see
// only values that were minted, in mint order, and a mode and a fence
// read through one load belong to the same grant event: W never comes
// with the U grant's fence, nor U with the upgrade's. Many U handles are
// each upgraded once while readers that have seen its U grant spin until
// they see W. Meant for -race.
func TestHandleGrantEventsWithoutMutex(t *testing.T) {
	const handles = 1000
	c, err := NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	type seen struct {
		mode  Mode
		fence FenceToken
	}
	var last FenceToken
	for i := 0; i < handles; i++ {
		l, err := c.Member(0).Lock(ctx, "handle/u", U)
		if err != nil {
			t.Fatal(err)
		}
		if g := l.granted(); g.mode != U || g.fence != l.Fence() || l.Mode() != U || l.latest.Load() != nil {
			t.Fatalf("handle %d fresh: %+v, Mode %v, Fence %v, latest %v", i, g, l.Mode(), l.Fence(), l.latest.Load())
		}
		grant := l.Fence()
		if !last.Less(grant) {
			t.Fatalf("handle %d granted with fence %v after %v", i, grant, last)
		}

		// Each reader reads the U grant first, then spins until it sees W.
		observed := make([][]seen, 4)
		var spinning, wg sync.WaitGroup
		for r := range observed {
			spinning.Add(1)
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				var last seen
				for n := 0; last.mode != W; n++ {
					if n == 1 {
						spinning.Done()
					}
					var s seen
					if r%2 == 0 {
						g := l.granted()
						s = seen{g.mode, g.fence}
					} else {
						s = seen{l.Mode(), l.Fence()} // two loads: only each one's order is promised
					}
					if s != last {
						observed[r] = append(observed[r], s)
						last = s
					}
					runtime.Gosched() // more readers than cores: let the upgrade run
				}
			}(r)
		}
		spinning.Wait()
		if err := l.Upgrade(ctx); err != nil {
			t.Fatal(err)
		}
		upgrade := l.Fence()
		wg.Wait()

		minted := map[FenceToken]Mode{grant: U, upgrade: W}
		if len(minted) != 2 || !grant.Less(upgrade) {
			t.Fatalf("handle %d: upgrade fence %v not above the grant's %v", i, upgrade, grant)
		}
		for r, seq := range observed {
			var prev seen
			for j, s := range seq {
				mode, ok := minted[s.fence]
				if !ok {
					t.Fatalf("handle %d: reader %d saw fence %v, which nobody minted", i, r, s.fence)
				}
				if j > 0 && (s.fence.Less(prev.fence) || (r%2 == 0 && s.fence == prev.fence)) {
					t.Fatalf("handle %d: reader %d saw fence %v after %v", i, r, s.fence, prev.fence)
				}
				if j > 0 && prev.mode == W && s.mode != W {
					t.Fatalf("handle %d: reader %d saw mode %v after W", i, r, s.mode)
				}
				if r%2 == 0 && s.mode != mode {
					t.Fatalf("handle %d: reader %d saw %v with fence %v through one load; that fence was minted with %v", i, r, s.mode, s.fence, mode)
				}
				prev = s
			}
		}
		if g := l.granted(); g.mode != W || g.fence != upgrade {
			t.Fatalf("handle %d after the upgrade: %+v, want W with %v", i, g, upgrade)
		}
		last = upgrade
		if err := l.Unlock(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHandleResource: the handle keeps no name of its own — Resource is
// its entry's — and still answers the name it was locked by: before and
// after Unlock (the entry may be evicted by then; the handle keeps it),
// for every segment of a LockPath, and for a lock whose entry a remote
// message created, nameless, before the first local Lock.
func TestHandleResource(t *testing.T) {
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	m0, m1 := c.Member(0), c.Member(1)

	l, err := m0.Lock(ctx, "handle/res", W)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Resource(); got != "handle/res" {
		t.Fatalf("held: Resource() = %q, want %q", got, "handle/res")
	}
	if err := l.Unlock(); err != nil {
		t.Fatal(err)
	}
	m0.EvictIdle()
	if got := l.Resource(); got != "handle/res" {
		t.Fatalf("after Unlock: Resource() = %q, want %q", got, "handle/res")
	}

	pl, err := m0.LockPath(ctx, []string{"db", "fares", "row17"}, W)
	if err != nil {
		t.Fatal(err)
	}
	segs := append([]*Lock(nil), pl.locks...)
	want := []string{"db", "db/fares", "db/fares/row17"}
	check := func(when string) {
		t.Helper()
		for i, l := range segs {
			if got := l.Resource(); got != want[i] {
				t.Fatalf("%s: segment %d Resource() = %q, want %q", when, i, got, want[i])
			}
		}
	}
	check("held")
	if err := pl.Unlock(); err != nil {
		t.Fatal(err)
	}
	check("after Unlock")

	// Member 1 takes the token of a lock member 0 (its root) has never
	// been asked for by name: member 0's entry comes from the request.
	const res = "handle/remote-first"
	r, err := m1.Lock(ctx, res, W)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Unlock(); err != nil {
		t.Fatal(err)
	}
	id := lockIDFor(res)
	sh := &m0.shards[uint64(id)%lockShardCount]
	sh.mu.Lock()
	ls, ok := sh.locks[id]
	sh.mu.Unlock()
	if !ok || ls.res != "" {
		t.Fatalf("member 0's entry for a remote-only lock: present %v, want one named \"\"", ok)
	}
	l, err = m0.Lock(ctx, res, W)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Resource(); got != res {
		t.Fatalf("local Lock after a remote one: Resource() = %q, want %q", got, res)
	}
	if err := l.Unlock(); err != nil {
		t.Fatal(err)
	}
	if got := l.Resource(); got != res {
		t.Fatalf("after Unlock: Resource() = %q, want %q", got, res)
	}
}
