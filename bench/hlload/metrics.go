package main

// metricDef declares one metric the benchmark prints. BENCHMARK.json
// repeats these tables; TestBenchmarkJSONMatches keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the baseline median it may worsen by
}

// endToEnd is what a client of the lock service sees, per workload; the
// time-based ones are reported at the reference's nominal speed (see
// reference.go). A bound covers all four workloads, so the noisiest sets
// it: three times the spread between ten identical runs of hot-key, whose
// two clients race for the token, comes to 0.25 for every metric (see
// the A/A record in bench/README.md). A bound tighter than identical code
// can hold would only reject changes at random.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"lock_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the -traced run: counters over the measured part divided
// by ops, the layer ladder, the stand-alone probes and the cross-checks.
var perLayer = []metricDef{
	{name: "client.fail_ratio", unit: "ratio", better: "lower"},
	{name: "client.lock_p99_us", unit: "us", better: "lower"},
	{name: "member.msgs_per_op", unit: "msgs/op", better: "lower"},
	{name: "member.token_transfers_per_op", unit: "1/op", better: "lower"},
	{name: "hlock.token_hops_mean", unit: "hops", better: "lower"},
	{name: "member.shared_join_ratio", unit: "ratio", better: "higher"},
	{name: "member.remote_ratio", unit: "ratio", better: "lower"},
	{name: "journal.records_per_op", unit: "1/op", better: "lower"},
	{name: "journal.wal_bytes_per_op", unit: "B/op", better: "lower"},
	{name: "journal.fsyncs_per_op", unit: "1/op", better: "lower"},
	{name: "journal.fsync_mean_us", unit: "us", better: "lower"},
	{name: "journal.snapshots_per_kop", unit: "1/kop", better: "lower"},
	{name: "transport.frames_per_op", unit: "1/op", better: "lower"},
	{name: "transport.bytes_per_op", unit: "B/op", better: "lower"},
	{name: "transport.retransmits_per_kop", unit: "1/kop", better: "lower"},
	{name: "transport.queue_high_water", unit: "frames", better: "lower"},
	{name: "session.leader_acquires_per_op", unit: "1/op", better: "lower"},
	{name: "session.handoffs_per_op", unit: "1/op", better: "higher"},
	{name: "telemetry.trace_records_per_op", unit: "1/op", better: "lower"},
	{name: "telemetry.ops_ratio", unit: "ratio", better: "higher"},
	{name: "runtime.allocs_per_op", unit: "1/op", better: "lower"},
	{name: "runtime.alloc_bytes_per_op", unit: "B/op", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},

	{name: "ladder.local.hlock_ns", unit: "ns", better: "lower"},
	{name: "ladder.local.member_ns", unit: "ns", better: "lower"},
	{name: "ladder.local.telemetry_ns", unit: "ns", better: "lower"},
	{name: "ladder.local.journal_ns", unit: "ns", better: "lower"},
	{name: "ladder.local.session_ns", unit: "ns", better: "lower"},
	{name: "ladder.local.lockserver_ns", unit: "ns", better: "lower"},
	{name: "ladder.local.tcp_ns", unit: "ns", better: "lower"},
	{name: "ladder.remote.hlock_ns", unit: "ns", better: "lower"},
	{name: "ladder.remote.proto_ns", unit: "ns", better: "lower"},
	{name: "ladder.remote.member_ns", unit: "ns", better: "lower"},
	{name: "ladder.remote.transport_ns", unit: "ns", better: "lower"},
	{name: "ladder.remote.journal_ns", unit: "ns", better: "lower"},
	{name: "ladder.remote.lockserver_ns", unit: "ns", better: "lower"},
	{name: "trace.overhead_ratio.local", unit: "ratio", better: "lower"},
	{name: "trace.overhead_ratio.remote", unit: "ratio", better: "lower"},

	{name: "transport.oneway_us", unit: "us", better: "lower"},
	{name: "transport.burst_frames_per_s", unit: "1/s", better: "higher"},
	{name: "transport.frames_per_write", unit: "ratio", better: "higher"},
	{name: "journal.append_ns", unit: "ns", better: "lower"},
	{name: "journal.sync_us", unit: "us", better: "lower"},
	{name: "journal.bytes_per_record", unit: "B", better: "lower"},
	{name: "proto.encode_ns", unit: "ns", better: "lower"},
	{name: "proto.decode_ns", unit: "ns", better: "lower"},
	{name: "proto.decode_allocs", unit: "1/op", better: "lower"},

	{name: "procs.ops_per_s", unit: "ops/s", better: "higher"},
	{name: "procs.lock_p50_us", unit: "us", better: "lower"},
}
