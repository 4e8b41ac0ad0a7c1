package sim

import (
	"math/rand"
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(30*time.Millisecond, func() { got = append(got, 3) })
	s.At(10*time.Millisecond, func() { got = append(got, 1) })
	s.At(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run(time.Second)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if s.Now() != time.Second {
		t.Fatalf("Now = %v, want 1s", s.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5*time.Millisecond, func() { got = append(got, i) })
	}
	s.Run(time.Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("ties must fire in scheduling order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	count := 0
	var step func()
	step = func() {
		count++
		if count < 5 {
			s.At(time.Millisecond, step)
		}
	}
	s.At(0, step)
	s.Run(time.Second)
	if count != 5 {
		t.Fatalf("count = %d", count)
	}
	if want := 4 * time.Millisecond; s.Now() < want {
		t.Fatalf("time did not advance: %v", s.Now())
	}
}

func TestRunStopsAtDeadline(t *testing.T) {
	s := New(1)
	fired := 0
	s.At(10*time.Millisecond, func() { fired++ })
	s.At(20*time.Millisecond, func() { fired++ })
	if n := s.Run(15 * time.Millisecond); n != 1 || fired != 1 {
		t.Fatalf("Run fired %d (cb %d), want 1", n, fired)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d", s.Pending())
	}
	s.Run(time.Second)
	if fired != 2 {
		t.Fatal("second event lost")
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New(1)
	s.Run(time.Millisecond)
	ran := false
	s.At(-time.Second, func() { ran = true })
	s.Run(2 * time.Millisecond)
	if !ran {
		t.Fatal("negative-delay event never ran")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		s := New(42)
		rng := s.NewRand()
		var vals []int64
		for i := 0; i < 5; i++ {
			vals = append(vals, rng.Int63())
		}
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce the same streams")
		}
	}
}

func TestDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mean := 150 * time.Millisecond

	m := MeanOf(Exponential(mean), rng, 20000)
	if m < mean*8/10 || m > mean*12/10 {
		t.Errorf("Exponential mean = %v, want ≈%v", m, mean)
	}
	m = MeanOf(UniformAround(mean), rng, 20000)
	if m < mean*95/100 || m > mean*105/100 {
		t.Errorf("UniformAround mean = %v, want ≈%v", m, mean)
	}
	u := Uniform(10*time.Millisecond, 20*time.Millisecond)
	for i := 0; i < 1000; i++ {
		d := u(rng)
		if d < 10*time.Millisecond || d > 20*time.Millisecond {
			t.Fatalf("Uniform out of range: %v", d)
		}
	}
	// Swapped bounds are tolerated.
	u = Uniform(20*time.Millisecond, 10*time.Millisecond)
	if d := u(rng); d < 10*time.Millisecond || d > 20*time.Millisecond {
		t.Fatalf("swapped Uniform out of range: %v", d)
	}
	if d := Fixed(time.Second)(rng); d != time.Second {
		t.Fatalf("Fixed = %v", d)
	}
	// Exponential tail truncation.
	e := Exponential(time.Millisecond)
	for i := 0; i < 100000; i++ {
		if d := e(rng); d > 10*time.Millisecond {
			t.Fatalf("exponential sample beyond truncation: %v", d)
		}
	}
}
