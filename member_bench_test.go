package hierlock_test

// Benchmarks for the member runtime's client hot path. The contended
// multi-lock benchmarks are the regression guard for the sharded member
// state: goroutines hammering *distinct* resources on one member must
// scale with cores instead of serializing on member-global state.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"hierlock"
	"hierlock/internal/audit"
	"hierlock/internal/introspect"
	"hierlock/internal/metrics"
	"hierlock/internal/trace"
)

// BenchmarkMemberMultiLockContended drives P parallel goroutines, each
// acquiring and releasing its own private resource on the same member
// (member 0 of a single-node cluster, so every acquisition is a local
// token-node grant with no protocol traffic). With per-lock sharded
// member state these operations are independent; any member-global
// serialization shows up directly as lost throughput — but only the
// serialization of a member with no telemetry attached, which is not
// what lockd runs: BenchmarkMemberDefaultTelemetry measures that. Run
// with -cpu 1,2 to see scaling at all; before the telemetry path was
// striped this read 555 ns/op on one core and 521 on two.
func BenchmarkMemberMultiLockContended(b *testing.B) {
	for _, par := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("goroutines-%d", par), func(b *testing.B) {
			c, err := hierlock.NewCluster(1)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			m := c.Member(0)
			ctx := context.Background()
			var next atomic.Int64
			b.SetParallelism(par)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				res := fmt.Sprintf("res-%d", next.Add(1))
				for pb.Next() {
					l, err := m.Lock(ctx, res, hierlock.W)
					if err != nil {
						b.Fatal(err)
					}
					if err := l.Unlock(); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkMemberDefaultTelemetry is the resident Lock/Fence/Unlock pair
// under the telemetry cmd/lockd attaches by default: a registry, the
// trace ring tapped by the auditor, and the incident recorder.
// Each goroutine cycles 64 private W keys, so there is no lock contention
// and no protocol traffic: what -cpu 2 loses against -cpu 1 is what the
// telemetry path makes callers share. `make bench` runs it at -cpu 1,2.
func BenchmarkMemberDefaultTelemetry(b *testing.B) {
	c, err := hierlock.NewCluster(1)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	m := c.Member(0)
	attachDefaultTelemetry(m)
	ctx := context.Background()
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := next.Add(1)
		var keys [64]string
		for i := range keys {
			keys[i] = fmt.Sprintf("g%d/key-%d", g, i)
		}
		for i := 0; pb.Next(); i++ {
			l, err := m.Lock(ctx, keys[i%len(keys)], hierlock.W)
			if err != nil {
				b.Fatal(err)
			}
			fenceSink = l.Fence()
			if err := l.Unlock(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

var fenceSink hierlock.FenceToken

// BenchmarkMemberRemoteTelemetry is the remote grant under the same
// telemetry: two members, each wired as cmd/lockd wires one, take turns
// locking one W key, so every grant fetches the token from the other (one
// hop) and its client parks and wakes. One op is one Lock/Unlock pair.
func BenchmarkMemberRemoteTelemetry(b *testing.B) {
	c, err := hierlock.NewCluster(2)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	members := [2]*hierlock.Member{c.Member(0), c.Member(1)}
	for _, m := range members {
		attachDefaultTelemetry(m)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := members[i%2].Lock(ctx, "remote", hierlock.W)
		if err != nil {
			b.Fatal(err)
		}
		if err := l.Unlock(); err != nil {
			b.Fatal(err)
		}
	}
}

// attachDefaultTelemetry wires m the way cmd/lockd does with no flags
// (see hierlock.AttachLockdWiring) and returns the pieces for tests that
// read them back.
func attachDefaultTelemetry(m *hierlock.Member) (*metrics.Registry, *trace.Recorder, *audit.Auditor, *introspect.Recorder) {
	return hierlock.AttachLockdWiring(m, 4096)
}

// BenchmarkMemberMultiLockSpread is the same workload spread over a
// shared pool of resources larger than the shard count, so successive
// operations from one goroutine touch different shards.
func BenchmarkMemberMultiLockSpread(b *testing.B) {
	const resources = 256
	c, err := hierlock.NewCluster(1)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	m := c.Member(0)
	ctx := context.Background()
	names := make([]string, resources)
	for i := range names {
		names[i] = fmt.Sprintf("spread-%d", i)
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)) * 31
		for pb.Next() {
			res := names[i%resources]
			i++
			l, err := m.Lock(ctx, res, hierlock.W)
			if err != nil {
				b.Fatal(err)
			}
			if err := l.Unlock(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMemberJournaledGrant is the resident Lock/Unlock pair on a
// journaled member: a single TCP member with a write-ahead journal under
// the default batched fsync policy, one resource. Journal records follow
// the token, not holds, and the token never leaves this member, so after
// the first hold a pair writes no record: what this measures is that the
// journal costs the resident path nothing.
func BenchmarkMemberJournaledGrant(b *testing.B) {
	m, err := hierlock.NewTCPMember(hierlock.TCPMemberConfig{
		ID:         0,
		ListenAddr: "127.0.0.1:0",
		DataDir:    b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := m.Lock(ctx, "journal-bench", hierlock.W)
		if err != nil {
			b.Fatal(err)
		}
		if err := l.Unlock(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemberJournaledTransfer is the token path on journaled
// members: two TCP members on loopback, each with a write-ahead journal
// under the default batched fsync policy, take turns locking one W key.
// Every grant fetches the token from the other member, and each end of
// the transfer appends a record before it acts on it, so one op, a
// Lock/Unlock pair, is one token hop and two journal records (reported
// as records/op). Those records are token-only, which the batched policy
// leaves to the next sync: fsyncs/op counts only the syncs of the two
// records that name the lock. BenchmarkMemberJournaledGrant is the resident path,
// which appends nothing.
func BenchmarkMemberJournaledTransfer(b *testing.B) {
	addrs := reserveAddrs(b, 2)
	dir := b.TempDir()
	var members [2]*hierlock.Member
	for i := range members {
		m, err := hierlock.NewTCPMember(hierlock.TCPMemberConfig{
			ID:         i,
			ListenAddr: addrs[i],
			Peers:      map[int]string{1 - i: addrs[1-i]},
			DataDir:    dir,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		members[i] = m
	}
	journaled := func() (records, fsyncs uint64) {
		for _, m := range members {
			st, _ := m.JournalStats()
			records, fsyncs = records+st.Records, fsyncs+st.Fsyncs
		}
		return records, fsyncs
	}
	ctx := context.Background()
	records, fsyncs := journaled()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := members[i%2].Lock(ctx, "transfer", hierlock.W)
		if err != nil {
			b.Fatal(err)
		}
		if err := l.Unlock(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	r, f := journaled()
	b.ReportMetric(float64(r-records)/float64(b.N), "records/op")
	b.ReportMetric(float64(f-fsyncs)/float64(b.N), "fsyncs/op")
}
