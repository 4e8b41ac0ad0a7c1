package sim

import (
	"testing"
	"time"
)

func TestFaultsPassthroughWithEmptyPlan(t *testing.T) {
	s := New(1)
	f := NewFaults(FaultPlan{}, s.NewRand())
	lat := func() time.Duration { return 150 * time.Millisecond }
	out := f.Apply(0, 1, time.Second, lat)
	if out.Deliver != time.Second+150*time.Millisecond {
		t.Fatalf("deliver = %v", out.Deliver)
	}
	if out.Drops+out.Duplicates+out.Spikes+out.Deferrals != 0 {
		t.Fatalf("unexpected fault events: %+v", out)
	}
}

func TestFaultsDropRetransmits(t *testing.T) {
	s := New(7)
	f := NewFaults(FaultPlan{DropRate: 0.5, RetransmitTimeout: 100 * time.Millisecond}, s.NewRand())
	lat := func() time.Duration { return 10 * time.Millisecond }
	totalDrops := 0
	for i := 0; i < 1000; i++ {
		out := f.Apply(0, 1, 0, lat)
		if out.Deliver != time.Duration(out.Drops)*100*time.Millisecond+10*time.Millisecond {
			t.Fatalf("deliver %v inconsistent with %d drops", out.Deliver, out.Drops)
		}
		totalDrops += out.Drops
	}
	// With p = 0.5 the expected number of drops per message is 1.
	if totalDrops < 700 || totalDrops > 1400 {
		t.Fatalf("drops = %d over 1000 messages, want ≈1000", totalDrops)
	}
}

func TestFaultsPartitionDefers(t *testing.T) {
	s := New(3)
	plan := FaultPlan{
		RetransmitTimeout: 50 * time.Millisecond,
		Partitions: []Partition{
			{A: 0, B: 1, Start: time.Second, End: 3 * time.Second},
		},
	}
	f := NewFaults(plan, s.NewRand())
	lat := func() time.Duration { return 10 * time.Millisecond }

	// Inside the window: deferred to heal + RTO.
	out := f.Apply(0, 1, 2*time.Second, lat)
	if out.Deferrals == 0 {
		t.Fatal("expected a deferral inside the partition window")
	}
	if want := 3*time.Second + 50*time.Millisecond + 10*time.Millisecond; out.Deliver != want {
		t.Fatalf("deliver = %v, want %v", out.Deliver, want)
	}
	// Reverse direction is cut too (symmetric by default).
	if out := f.Apply(1, 0, 2*time.Second, lat); out.Deferrals == 0 {
		t.Fatal("symmetric partition must cut B→A")
	}
	// Outside the window: untouched.
	if out := f.Apply(0, 1, 4*time.Second, lat); out.Deferrals != 0 {
		t.Fatalf("deferral outside window: %+v", out)
	}
	// Unrelated link: untouched.
	if out := f.Apply(0, 2, 2*time.Second, lat); out.Deferrals != 0 {
		t.Fatalf("deferral on unrelated link: %+v", out)
	}
}

func TestFaultsOneWayPartition(t *testing.T) {
	s := New(4)
	plan := FaultPlan{
		Partitions: []Partition{
			{A: 0, B: 1, OneWay: true, Start: 0, End: time.Second},
		},
	}
	f := NewFaults(plan, s.NewRand())
	lat := func() time.Duration { return time.Millisecond }
	if out := f.Apply(0, 1, 0, lat); out.Deferrals == 0 {
		t.Fatal("A→B must be cut")
	}
	if out := f.Apply(1, 0, 0, lat); out.Deferrals != 0 {
		t.Fatal("B→A must be open on a one-way cut")
	}
}

func TestFaultsCrashWindow(t *testing.T) {
	s := New(5)
	plan := FaultPlan{
		RetransmitTimeout: 100 * time.Millisecond,
		Crashes:           []CrashWindow{{Node: 2, Start: time.Second, End: 5 * time.Second}},
	}
	f := NewFaults(plan, s.NewRand())
	lat := func() time.Duration { return 10 * time.Millisecond }

	if !f.DownAt(2, 2*time.Second) || f.DownAt(2, 6*time.Second) || f.DownAt(1, 2*time.Second) {
		t.Fatal("DownAt window wrong")
	}
	if got := f.RestartAt(2, 2*time.Second); got != 5*time.Second {
		t.Fatalf("RestartAt = %v", got)
	}
	// A frame sent to the crashed node waits out the window.
	out := f.Apply(0, 2, 2*time.Second, lat)
	if out.Deferrals == 0 || out.Deliver < 5*time.Second {
		t.Fatalf("delivery into crash window not deferred: %+v", out)
	}
	// A frame that arrives mid-crash (sent just before) is also deferred.
	out = f.Apply(0, 2, time.Second-5*time.Millisecond, lat)
	if out.Deferrals == 0 || out.Deliver < 5*time.Second {
		t.Fatalf("in-flight frame into crash window not deferred: %+v", out)
	}
}

func TestFaultsDeterministic(t *testing.T) {
	run := func() []Outcome {
		s := New(42)
		f := NewFaults(FaultPlan{
			DropRate:  0.1,
			DupRate:   0.05,
			SpikeRate: 0.05,
		}, s.NewRand())
		rng := s.NewRand()
		lat := func() time.Duration { return time.Duration(rng.Int63n(int64(100 * time.Millisecond))) }
		outs := make([]Outcome, 0, 500)
		for i := 0; i < 500; i++ {
			outs = append(outs, f.Apply(i%8, (i+1)%8, time.Duration(i)*time.Millisecond, lat))
		}
		return outs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at message %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
