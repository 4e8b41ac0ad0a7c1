#!/usr/bin/env bash
# Alternating base/change pairs: the protocol a perf PR reports in
# CHANGES.md, and the regression gate `make ci` ends with.
#
#   make pairs W=embedded-local N=10 [BASE=HEAD~1]   # one bench/run.sh workload
#   make gate N=10 [BASE=HEAD~1]                     # the gated microbenchmarks
#   bash scripts/pairs.sh WORKLOAD|micro [N] [BASE]
#
# BASE is checked out as a git worktree under .bench_build/pairs-base (kept,
# with its build cache, for the next call); the change is the working tree,
# uncommitted edits included. The base runs first in odd pairs and the
# change first in even ones. scripts/pairs.awk summarizes the runs, which
# are kept in .bench_build/pairs.tsv; their stderr goes to
# .bench_build/pairs.log.
#
# Workload mode runs
#   bash bench/run.sh --workload W --seed 1 --seconds 15 --trace 0
# on both sides and prints each run's five end-to-end metrics, failed and
# correct as it finishes. Then, per metric: the base quartiles, the change
# median, the pairs won and lost, and "resolved" when the change won >= 9
# in 10 pairs and the medians differ by more than the base inter-quartile
# distance. It exits 1 when a run failed an operation or was not correct.
#
# Micro mode builds one test binary per package and side, once, with
# -trimpath so that the same source gives both sides the same bytes. Then
# it runs each benchmark of the gated set below with -test.count 1, the
# two sides back to back, and prints the same summary of ns/op. A
# benchmark is flagged when it loses >= 8 in 10 pairs with a median worse
# than the base's by more than both the base inter-quartile distance and
# 10 %. Whatever the first pass flags is run for N more pairs (kept in
# .bench_build/pairs-confirm.tsv) and summarized again; the script exits 1
# only on a benchmark flagged in both passes.
#
# Run lengths, on a 2-core Xeon. One op of a figure cell takes 14-25 ms
# for the protocol at 10 nodes, 30-50 at 40 and 75-130 at 120, and 3-14 ms
# for Naimi: the -benchtime Nx counts below give each cell 200-400 ms
# after Go's first op (one cell's runs vary by 18 % at 75 ms there, and
# by 10 % from 300 ms on). The engine runs for 1 s, as two back-to-back
# 200 ms runs of one binary there differ by up to 20 % (1 s: 6 %), and
# the rest for 300 ms. Each benchmark, and each figure cell, runs alone,
# so its two sides run within a second or two of each other. A pair takes
# ~37 s, so N = 10 about six and a half minutes, plus the confirmation
# pass's share of that when one runs.
set -euo pipefail

# The gated set, one package and -benchtime a line, then the benchmarks:
# top-level names, or the path to one figure cell.
gated="hierlock 20x $(echo Fig{5MessageOverhead,6LatencyFactor}/our-protocol/nodes-10 Fig7Breakdown/nodes-10)
hierlock 8x $(echo Fig{5MessageOverhead,6LatencyFactor}/our-protocol/nodes-40 Fig7Breakdown/nodes-40)
hierlock 3x $(echo Fig{5MessageOverhead,6LatencyFactor}/our-protocol/nodes-120 Fig7Breakdown/nodes-120)
hierlock 40x $(echo Fig{5MessageOverhead,6LatencyFactor}/naimi-{same-work,pure}/nodes-{10,40,120})
hierlock 300ms LiveClusterThroughput MemberMultiLockContended MemberJournaledGrant MemberDefaultTelemetry MemberRemoteTelemetry
hierlock/internal/hlock 1s LocalAcquireRelease RequestGrantRoundTrip QueueChurn Fingerprint
hierlock/internal/proto 300ms AppendLinkData ReadLinkFrame LinkRoundTrip EncodeMessage DecodeMessage
hierlock/internal/trace 300ms AdmitResidentBatch"

w=${1:?usage: scripts/pairs.sh WORKLOAD|micro [N] [BASE]}
n=${2:-10}
base=${3:-HEAD~1}
root=$(git rev-parse --show-toplevel)
cd "$root"
rev=$(git rev-parse --verify "$base^{commit}")
wt=$root/.bench_build/pairs-base
mkdir -p "$root/.bench_build"
if [[ -e $wt/.git ]]; then
	git -C "$wt" checkout -q --detach "$rev"
else
	git worktree add -q --detach "$wt" "$rev"
fi
declare -A tree=([base]=$wt [change]=$root)
log=$root/.bench_build/pairs.log
runs=$root/.bench_build/pairs.tsv
bin=$root/.bench_build/gate
: >"$log"
: >"$runs"

metrics="ops_per_s lock_p50_us cpu_us_per_op peak_rss_mb setup_s"

# run SIDE PAIR: one benchmark run, printed and appended to $runs.
run() {
	local out line m v
	out=$(cd "${tree[$1]}" && bash bench/run.sh --workload "$w" --seed 1 --seconds 15 --trace 0 2>>"$log" | tail -n 1) || true
	if [[ $out != *'"metrics"'* ]]; then
		echo "pairs: $1 run of pair $2 printed no result (see $log)" >&2
		exit 1
	fi
	line=$(printf '%-6s pair %2d' "$1" "$2")
	for m in $metrics failed correct; do
		case $m in
		failed | correct) v=${out#*\"$m\":} ;;
		*) v=${out#*\"$m\":\{\"value\":} ;;
		esac
		v=${v%%[,\}]*}
		printf '%s\t%s\t%s\t%s\n' "$1" "$2" "$m" "$v" >>"$runs"
		if [[ $m != correct ]]; then printf -v v '%.4g' "$v"; fi
		line+="  $m $v"
	done
	echo "$line"
}

# bench SIDE PAIR PKG BENCHTIME NAME: one pass of BenchmarkNAME (a/b/c
# selects that sub-benchmark), each ns/op it prints appended to $runs.
bench() {
	local out
	if ! out=$(cd "${tree[$1]}${3#hierlock}" && "$bin/$1/${3##*/}.test" -test.run '^$' \
		-test.bench "^Benchmark${5//\//\$/^}\$" -test.benchtime "$4" -test.count 1 </dev/null 2>>"$log"); then
		echo "$out" >>"$log"
		echo "pairs: $1 run of pair $2 failed in Benchmark$5 (see $log)" >&2
		exit 1
	fi
	out=$(awk -v side="$1" -v pair="$2" '$1 ~ /^Benchmark/ && $4 == "ns/op" { print side "\t" pair "\t" $1 "\t" $3 }' <<<"$out")
	if [[ -n $out ]]; then
		echo "$out" >>"$runs"
	elif [[ $1 == change ]]; then
		echo "pairs: the gated Benchmark$5 is not in $3" >&2
		exit 1
	fi
}

# pairs SET: N alternating pairs, appended to $runs: of each benchmark in
# SET (lines as in $gated) in micro mode, of the workload otherwise.
pairs() {
	local i first second pkg t names b
	for ((i = 1; i <= n; i++)); do
		first=base second=change
		if ((i % 2 == 0)); then first=change second=base; fi
		if [[ $w == micro ]]; then
			echo "pair $i: $first first"
			while read -r pkg t names; do
				for b in $names; do
					bench "$first" "$i" "$pkg" "$t" "$b"
					bench "$second" "$i" "$pkg" "$t" "$b"
				done
			done <<<"$1"
		else
			run "$first" "$i"
			run "$second" "$i"
		fi
	done
}

echo "$w: $n pairs, base $base ($(git rev-parse --short "$rev")) against the working tree"
if [[ $w != micro ]]; then
	pairs
	awk -v higher=ops_per_s -f "$root/scripts/pairs.awk" "$runs"
	exit
fi

for side in base change; do
	mkdir -p "$bin/$side"
	(cd "${tree[$side]}" && go test -trimpath -c -o "$bin/$side/" $(cut -d' ' -f1 <<<"$gated" | sort -u))
done
pairs "$gated"
status=0
summary=$(awk -v gate=1 -f "$root/scripts/pairs.awk" "$runs") || status=$?
echo "$summary"
if ((status == 0)); then exit 0; fi

# The confirmation pass: N more pairs of the gated entries the first pass
# flagged (an entry is re-run whole when any benchmark it prints was), and
# the gate fails only on a benchmark both passes flag.
flagged=$(sed -n 's/^regressed: //p' <<<"$summary")
confirm=""
while read -r pkg t names; do
	keep=""
	for b in $names; do
		for f in $flagged; do
			if [[ $f == "Benchmark$b" || $f == "Benchmark$b"[-/]* ]]; then
				keep+=" $b"
				break
			fi
		done
	done
	if [[ -n $keep ]]; then confirm+="$pkg $t$keep"$'\n'; fi
done <<<"$gated"
if [[ -z $confirm ]]; then
	echo "pairs: the summary failed without naming a gated benchmark" >&2
	exit 1
fi
pass1=$runs
runs=$root/.bench_build/pairs-confirm.tsv
: >"$runs"
echo
echo "confirming:$flagged ($n more pairs)"
pairs "${confirm%$'\n'}"
awk -v gate=1 -f "$root/scripts/pairs.awk" "$pass1" "$runs"
