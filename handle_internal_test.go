package hierlock

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestHandleGrantEventsWithoutMutex: Mode and Fence take no mutex — a
// handle's grant events are immutable records published through one
// atomic pointer — so readers spinning on them while Refence and Upgrade
// run see only values that were minted, in mint order, and a mode and a
// fence read through one load belong to the same grant event: W never
// comes with a fence minted before the upgrade's. Meant for -race.
func TestHandleGrantEventsWithoutMutex(t *testing.T) {
	const refences = 2000
	c, err := NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	l, err := c.Member(0).Lock(ctx, "handle/u", U)
	if err != nil {
		t.Fatal(err)
	}
	if g := l.granted(); g.mode != U || g.fence != l.Fence() || l.Mode() != U || l.latest.Load() != nil {
		t.Fatalf("fresh handle: %+v, Mode %v, Fence %v, latest %v", g, l.Mode(), l.Fence(), l.latest.Load())
	}

	var mintMu sync.Mutex
	minted := map[FenceToken]Mode{l.Fence(): U}
	var upgradeFence FenceToken
	stop := make(chan struct{})
	type seen struct {
		mode  Mode
		fence FenceToken
	}
	observed := make([][]seen, 4)
	var wg sync.WaitGroup
	for r := range observed {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var last seen
			for {
				select {
				case <-stop:
					return
				default:
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
			}
		}(r)
	}
	for i := 0; i < refences; i++ {
		if i == refences/2 {
			if err := l.Upgrade(ctx); err != nil {
				t.Fatal(err)
			}
			upgradeFence = l.Fence()
			mintMu.Lock()
			minted[upgradeFence] = W
			mintMu.Unlock()
			continue
		}
		f, err := l.Refence()
		if err != nil {
			t.Fatal(err)
		}
		mintMu.Lock()
		minted[f] = l.Mode()
		mintMu.Unlock()
		if i%64 == 0 {
			time.Sleep(10 * time.Microsecond) // let the readers in
		}
	}
	close(stop)
	wg.Wait()

	for r, seq := range observed {
		var prev seen
		for i, s := range seq {
			mode, ok := minted[s.fence]
			if !ok {
				t.Fatalf("reader %d saw fence %v, which nobody minted", r, s.fence)
			}
			if i > 0 && (s.fence.Less(prev.fence) || (r%2 == 0 && s.fence == prev.fence)) {
				t.Fatalf("reader %d saw fence %v after %v", r, s.fence, prev.fence)
			}
			if i > 0 && prev.mode == W && s.mode != W {
				t.Fatalf("reader %d saw mode %v after W", r, s.mode)
			}
			if r%2 == 0 && s.mode != mode {
				t.Fatalf("reader %d saw %v with fence %v through one load; that fence was minted with %v", r, s.mode, s.fence, mode)
			}
			prev = s
		}
	}
	if g := l.granted(); g.mode != W || !upgradeFence.Less(g.fence) || len(minted) != refences+1 {
		t.Fatalf("after the run: %+v, %d distinct fences minted, want W, a fence after the upgrade's and %d", g, len(minted), refences+1)
	}
	if err := l.Unlock(); err != nil {
		t.Fatal(err)
	}
}
