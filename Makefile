GO ?= go
GOFMT ?= gofmt

.PHONY: build test vet lint race chaos coldstart sessions membership fuzz bench pairs gate audit soak loc ci clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static checks: go vet — over bench/ too, a module of its own that no
# root-module target compiles, so a root change that stops the frozen
# harness building fails here and not in the benchmark run, and for
# darwin and windows, so the journal's per-OS mapping code (unix mmap
# without fdatasync, Windows views) keeps building — plus a gofmt
# drift check (fails listing any unformatted file), and the scripts: a
# syntax check of each, then the pairs summary's verdicts on canned runs,
# so a broken gate fails here and not at the end of ci. Last, every
# |-separated alternative of every -run pattern below must name a test
# (`go test -run` passes after running nothing, so a deleted or renamed
# test would drop out of its target unnoticed).
lint: vet
	$(GO) vet -C bench ./...
	GOOS=darwin $(GO) vet ./...
	GOOS=windows $(GO) vet ./...
	@unformatted=$$($(GOFMT) -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	for f in scripts/*.sh; do bash -n $$f || exit 1; done
	bash scripts/pairs_test.sh
	GO=$(GO) bash scripts/runpatterns.sh Makefile

# Full test suite under the race detector (includes the transport
# failure-path tests, the simulator's chaos tests on a heavy-tailed FIFO
# link and the crash, restart, membership and watchdog scenarios on live
# members).
race:
	$(GO) test -race -count=1 ./...

# Just the fault-injection, crash-recovery and transport-failure
# coverage: the simulator's chaos runs of all five protocols on a
# heavy-tailed FIFO link (a stalled frame holds its link), and on live loopback
# members the token holder's crash with requests queued behind it, the
# wait before a confirmation, a cluster of bare-configured members
# recovering on the default timings and beaconing, the restarts with and
# without the data dir, a join during a recovery round, the root's graceful leave, the watchdog
# over a wedged round, fsync stalls and a healthy cluster, a request
# re-issued into a still-fenced new root, and the deadlock report over
# merged inventories (the fifth line, three times:
# where the queued requests sit when the holder dies, and when a
# restarted member's first frames land, are schedule). The
# transport line runs three times: when a delayed ack is written and
# which reader ends up delivering depend on the schedule, and one pass
# hides what the next one shows (TestTCPCutScheduleExactlyOnce, a few
# hundred seeded cuts, is there to find two readers on one sequence
# number; only the race detector's pace makes that likely). So do the
# last three: which stripe admits its staged trace entries (to the taps
# and the ring alike) or folds its staged metric words when (every
# client-operation sample is such a word, and a scrape must show each
# grant in both families it feeds or in neither:
# TestScrapeExactWhileCounting), whether anything comes between a grant
# and its release on a stripe (TestReleaseFolds*, TestSharedAuditor*), which
# reader's pull hands the auditor an offending entry
# (TestViolationInStagedEntry*, TestEveryConsumerPulls*) and what a
# reader of a handle's mode and fence sees beside an Upgrade
# (TestHandleGrantEvents*) is schedule too (internal/metrics carries the
# registry's fold hooks) — and so is whether a client queued for a lock's
# admission slot is popped before or after it gives up (TestSlotBlocked*),
# what an incident copies of a paused ring (TestFlightRecorderSees*) and
# whether an incident, triggered in a tap under a stripe mutex and written
# on a goroutine of its own that takes every stripe mutex, is complete when
# Close returns (TestNodeEventsInTheRing, TestDebugIncidents*, the
# introspect line) — and which member of a LockAll round is caught waiting on the other when
# the wait-for graph is sampled (TestLockAllOrdering*). The control plane
# is mgrMu alone — recovery, the membership handshake, the tracked timers —
# so its line runs three times too: which of a stale message's stripe
# release and a client's Lock comes first (TestStaleHint*), when a
# RecoveryTimeout fires beside the grant it bounds, how a tracked
# timer's callback, a handshake ack and Close interleave on it, and
# whether a leave that lowers the majority lands before or after a
# round's retry (TestLeaveLoweringQuorumCommitsRound).
chaos:
	$(GO) test -race -count=1 -run 'Chaos' ./internal/cluster/
	$(GO) test -race -count=3 -run 'TestTCP' ./internal/transport/
	$(GO) test -race -count=1 ./internal/recovery/
	$(GO) test -race -count=1 -run 'TestTCPCrashRecovery|TestTCPRecoveryQuietWithoutCrash' .
	$(GO) test -race -count=3 -run 'TestTCPCrashServesQueuedWaiters|TestTCPHolderCrashWaitsForConfirmation|TestTCPBareConfigRecovers|TestTCPMemberBareConfigBeacons|TestTCPDiskLossRestartIsFenced|TestTCPPeerHealthIsTheDetectors|TestTCPRestartResumesRoundEpoch|TestTCPJoinDuringRecoveryRound|TestTCPRootLeaveRegeneratesImplicitTokens|TestEarlyFrameReplayedAtReseed|TestTCPWatchdog|TestInventory' .
	$(GO) test -race -count=3 -run 'TestStagedRing|TestSharedRing|TestResidentPath|TestAcquireFolded|TestSlotBlocked|TestReleaseFolds|TestClientScriptRingGolden|TestSharedAuditor|TestViolationInStagedEntry|TestEveryConsumerPulls|TestHandleGrantEvents|TestFlightRecorderSees|TestNodeEventsInTheRing|TestLockAllOrdering' .
	$(GO) test -race -count=3 -run 'TestScrapeExactWhileCounting|TestMemberMetricsGolden' .
	$(GO) test -race -count=3 -run 'TestStaleHintSyncsOutsideStripe|TestTCPRecoveryTimeoutWithoutHeartbeat|TestCloseWaitsForInflightRecoveryRetry|TestTCPMembership|TestTCPLeave|TestTCPLeaver|TestLeaveLoweringQuorumCommitsRound' .
	$(GO) test -race -count=3 ./internal/audit/ ./internal/trace/ ./internal/introspect/ ./internal/metrics/
	$(GO) test -race -count=3 -run 'TestDebugIncidents' ./internal/lockserver/

# Durability coverage: the journal package (torn-tail, corrupt-frame,
# snapshot-rotation, parent-commit WAL replay tests; an append during a
# parked batched fsync, Snapshot and Close racing one; which batched
# appends sync and which wait for the next sync) and the
# full-cluster cold-start / restart rejoin acceptance tests over real
# TCP members, including fences across a restart for a lock that never
# left its root, a power loss that cost two members their token-only
# records (TestTCPColdStartAfterPowerLoss), the records-follow-the-token
# count and the no-fsync-per-transfer count. `make race`
# already runs all of these once; this target exists for the repeat
# count. A restarted member talks to its peers from inside
# NewTCPMember, so what races it (SetTelemetry did) shows up only in
# some schedules: three runs each, under the race detector.
# TestTCPRestartAfterTrafficRejoins is the restart of a member its peers
# have already heard thousands of frames from.
coldstart:
	$(GO) test -race -count=3 ./internal/journal/
	$(GO) test -race -count=3 -run 'TestTCPColdStart|TestTCPRestartSingleMemberRejoins|TestTCPRestartAfterTrafficRejoins|TestJournalRecordsFollowTokenNotHolds|TestTokenTransfersSyncNothing' .

# Session/lease/admission stress under the race detector: the session
# tier's lifecycle and admission-cap tests, the lockserver bugfix
# regressions, lease acceptance tests and line-protocol pipelining, and
# the fencing tests (including fence-across-crash-recovery).
# TestAdmission* includes the remote writer that local churn on its key
# must not starve. The lockserver line runs three times for it and for
# TestLeaseChaosAcrossMembers (12 clients over three members, three
# dying mid-hold): which client the sweeper frees next, which parked
# LOCK times out into a SESSION RENEW, and where in the local churn the
# remote request lands, is schedule.
sessions:
	$(GO) test -race -count=1 ./internal/session/
	$(GO) test -race -count=3 -run 'TestSession|TestAdmission|TestLease|TestLockHonors|TestUpgradeHonors|TestCloseDrains|TestLongLine|TestPipelined' ./internal/lockserver/
	$(GO) test -race -count=1 -run 'TestFence' .

# Runtime-membership coverage under the race detector: the live TCP
# join/leave acceptance tests (grow, shrink, leaver killed mid-handoff,
# the root's leave, a join during a recovery round that returns once the
# joiner's detector confirms the dead member), the tracked
# recovery-timer regressions, and the membership wire-kind golden/fuzz
# corpus that rides in the proto package.
membership:
	$(GO) test -race -count=1 -run 'TestTCPMembership|TestTCPLeave|TestTCPLeaver|TestTCPRootLeave|TestTCPJoinDuringRecoveryRound|TestCloseWaitsForInflightRecoveryRetry|TestClosedMemberRunsNoTrackedCallbacks|TestCloseTimerStress' .
	$(GO) test -race -count=1 ./internal/proto/

# Short seeded fuzz passes over the journal replayer, the wire decoder and
# the client line protocol (longer runs: go test -fuzz FuzzReplay
# ./internal/journal).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReplay -fuzztime 10s ./internal/journal/
	$(GO) test -run '^$$' -fuzz FuzzDecodeMessage -fuzztime 10s ./internal/proto/
	$(GO) test -run '^$$' -fuzz FuzzServeConn -fuzztime 10s ./internal/lockserver/

# Microbenchmarks: protocol engine hot paths plus the observability
# overhead benches (histogram/counter/trace-record, including the
# nil-handle disabled paths, which must report 0 allocs/op), a journal
# append, and the token path on journaled members (two records an op,
# BenchmarkMemberJournaledTransfer). The second
# line is a smoke run of the member's resident pair, bare and under
# lockd's default telemetry, and of a remote grant under that telemetry
# (two members passing one key's token), on one core and on two: what a
# member makes its callers share shows only in the -cpu 2 column (for
# figures worth quoting raise -benchtime). Under the default telemetry a pair stages one
# trace entry — its grant, carrying the acquire's and the release's stamps
# — which the ring and then the auditor get 16 at a time; the flight
# recorder reads its grants from the ring when it is read.
bench:
	$(GO) test -run '^$$' -bench . -benchmem . ./internal/hlock ./internal/metrics ./internal/trace ./internal/proto ./internal/session ./internal/journal
	$(GO) test -run '^$$' -bench 'BenchmarkMemberDefaultTelemetry|BenchmarkMemberRemoteTelemetry|BenchmarkMemberMultiLockContended' -cpu 1,2 -benchtime 100x -benchmem .

# Alternating base/change pairs of one benchmark workload (15 s runs, seed
# 1): the base quartiles, the change median, the pairs won and lost and
# whether the difference is resolved — what a perf PR reports in
# CHANGES.md. Fails if a run failed an operation or was not correct. BASE
# is checked out as a worktree under .bench_build/.
W ?= embedded-local
N ?= 10
BASE ?= HEAD~1
pairs:
	bash scripts/pairs.sh $(W) $(N) $(BASE)

# The regression gate: the same alternating pairs over the gated
# microbenchmarks (engine, codec, member, line-server and live-cluster hot
# paths, and the Figure 5/6/7 cells; the set is declared in
# scripts/pairs.sh). Fails when a benchmark loses >= 8 of 10 pairs and its
# median is worse than the base's by more than both the base
# inter-quartile distance and 10%, or when its median allocs/op or B/op
# rises beyond the tolerance scripts/pairs.awk states.
gate:
	bash scripts/pairs.sh micro $(N) $(BASE)

# The online protocol auditor's invariant tests, under the race
# detector (they replay violating and healthy trace streams, the interval
# rule for finished operations handed in out of time order among them).
audit:
	$(GO) test -race -count=1 ./internal/audit/

# The whole suite N times (`make soak N=10`), for the failures that show
# once in many full runs: every failing run's complete log is kept under
# .soak/, and its failed tests and log path are printed. Slow (N full
# passes) and so not part of ci.
soak:
	GO=$(GO) bash scripts/soak.sh $(N)

# What CI runs: build, go vet + gofmt drift, the plain test pass (which
# includes the codec allocation assertions compiled out under -race and
# the figure-CSV golden), the full suite under -race (tier-1), the three
# targets that add a repeat count to schedule-dependent subsets of it
# (chaos, coldstart, sessions), the fuzz passes, and the regression gate:
# alternating pairs of the microbenchmarks against BASE (the parent
# commit by default), run on this machine in the same minutes. `race`
# covers ./... once, so `audit` and `membership` — -count=1 subsets of
# it — are focused local targets and not part of ci. The tracked size is
# printed last.
ci: build lint test race chaos coldstart sessions fuzz gate loc

# The tracked size, by the rule CHANGES.md and ROADMAP.md quote: lines of
# non-test .go files outside bench/.
loc:
	@git ls-files '*.go' | grep -v -e '^bench/' -e '_test\.go$$' | xargs cat | wc -l

clean:
	$(GO) clean ./...
