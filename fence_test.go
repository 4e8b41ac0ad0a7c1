package hierlock_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"hierlock"
)

func TestFenceTokenOrdering(t *testing.T) {
	cases := []struct {
		a, b hierlock.FenceToken
		less bool
	}{
		{hierlock.FenceToken{}, hierlock.FenceToken{Seq: 1}, true},
		{hierlock.FenceToken{Seq: 5}, hierlock.FenceToken{Seq: 5}, false},
		{hierlock.FenceToken{Seq: 9}, hierlock.FenceToken{Epoch: 1}, true},
		{hierlock.FenceToken{Epoch: 1, Seq: 9}, hierlock.FenceToken{Epoch: 1, Seq: 10}, true},
		{hierlock.FenceToken{Epoch: 2}, hierlock.FenceToken{Epoch: 1, Seq: 99}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%s < %s = %v, want %v", c.a, c.b, got, c.less)
		}
	}
	tok := hierlock.FenceToken{Epoch: 3, Seq: 41}
	if tok.String() != "3.41" {
		t.Errorf("String() = %q", tok.String())
	}
	back, err := hierlock.ParseFence("3.41")
	if err != nil || back != tok {
		t.Errorf("ParseFence round-trip: %v %v", back, err)
	}
	for _, bad := range []string{"", "3", "3.", ".41", "a.b", "3.41.5"} {
		if _, err := hierlock.ParseFence(bad); err == nil {
			t.Errorf("ParseFence(%q) accepted", bad)
		}
	}
	if !(hierlock.FenceToken{}).IsZero() || tok.IsZero() {
		t.Error("IsZero misclassifies")
	}
}

// TestFenceMonotonicAcrossGrants: along one exclusive hold chain the
// member mints strictly increasing fences, and an Upgrade — a handle's
// only re-grant — keeps advancing them for the same holder.
func TestFenceMonotonicAcrossGrants(t *testing.T) {
	cl, err := hierlock.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var last hierlock.FenceToken
	for i := 0; i < 4; i++ {
		m := cl.Member(i % 2)
		l, err := m.Lock(ctx, "chain", hierlock.U)
		if err != nil {
			t.Fatal(err)
		}
		f := l.Fence()
		if !last.Less(f) {
			t.Fatalf("grant %d fence %s not above %s", i, f, last)
		}
		if err := l.Upgrade(ctx); err != nil {
			t.Fatal(err)
		}
		uf := l.Fence()
		if !f.Less(uf) {
			t.Fatalf("upgrade fence %s not above grant fence %s", uf, f)
		}
		last = uf
		if err := l.Unlock(); err != nil {
			t.Fatal(err)
		}
	}
	// After release, Upgrade must refuse: the handle cannot be re-granted
	// a fence for a hold it no longer has.
	l, err := cl.Member(0).Lock(ctx, "chain", hierlock.U)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Unlock(); err != nil {
		t.Fatal(err)
	}
	if err := l.Upgrade(ctx); !errors.Is(err, hierlock.ErrReleased) {
		t.Fatalf("Upgrade on a released handle: %v, want ErrReleased", err)
	}
}

// TestFenceAdvancesAcrossRecovery: crash recovery bumps the lock's
// epoch, so a post-recovery holder's fence dominates any token the
// pre-crash holder could ever have minted — the property a storage
// system relies on to reject the dead holder's writes.
func TestFenceAdvancesAcrossRecovery(t *testing.T) {
	members := newRecoveryTCPCluster(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	l2, err := members[2].Lock(ctx, "fenced-res", hierlock.W)
	if err != nil {
		t.Fatal(err)
	}
	before := l2.Fence()
	if before.IsZero() {
		t.Fatal("grant carried a zero fence")
	}
	// Member 2 crashes holding W; recovery regenerates the token with a
	// bumped epoch.
	if err := members[2].Close(); err != nil {
		t.Fatal(err)
	}
	l0, err := members[0].Lock(ctx, "fenced-res", hierlock.W)
	if err != nil {
		t.Fatalf("post-recovery acquire: %v", err)
	}
	after := l0.Fence()
	if !before.Less(after) {
		t.Fatalf("post-recovery fence %s does not dominate pre-crash %s", after, before)
	}
	if after.Epoch <= before.Epoch {
		t.Fatalf("recovery did not bump the fence epoch: %s -> %s", before, after)
	}
	if err := l0.Unlock(); err != nil {
		t.Fatal(err)
	}
	if err := members[0].Err(); err != nil {
		t.Fatal(err)
	}
}
