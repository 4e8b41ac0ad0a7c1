#!/usr/bin/env bash
# Feeds scripts/pairs.awk canned runs and checks its verdicts and exit
# status, so a broken summary fails `make lint` and not ten minutes into
# `make gate`:
#
#   bash scripts/pairs_test.sh
set -euo pipefail

summary=$(dirname "$0")/pairs.awk
failed=0

# tsv NAME "BASE RUNS" "CHANGE RUNS": one metric's pairs as pairs.awk reads them.
tsv() {
	local i=0 v
	for v in $2; do printf 'base\t%d\t%s\t%s\n' $((++i)) "$1" "$v"; done
	i=0
	for v in $3; do printf 'change\t%d\t%s\t%s\n' $((++i)) "$1" "$v"; done
}

# check EXIT TEXT WHAT [-v VAR=VALUE]... [PASS-FILE]...: run pairs.awk on
# the pass files, or on stdin, and expect its exit status to be EXIT and
# its output to contain TEXT.
check() {
	local want=$1 text=$2 what=$3 out status=0 opts=() files=()
	shift 3
	while (($#)); do
		if [[ $1 == -v ]]; then
			opts+=("$1" "$2")
			shift
		else
			files+=("$1")
		fi
		shift
	done
	out=$(awk "${opts[@]}" -f "$summary" "${files[@]}") || status=$?
	if [[ $status != "$want" || $out != *"$text"* ]]; then
		printf 'FAIL %s: exit %s (want %s), "%s" wanted in:\n%s\n' "$what" "$status" "$want" "$text" "$out" >&2
		failed=1
	fi
}

tight="100 101 99 100 102 98 100 101 99 100"  # quartiles 99.25 / 100 / 100.75
wide="100 80 120 90 110 70 130 95 105 85"     # quartiles 86.25 / 97.5 / 108.75

check 0 " 5/10  5/10  ok" "A/A" -v gate=1 \
	< <(tsv BenchmarkX "$tight" "99 102 100 101 101 99 99 102 98 99")
check 1 "regressed: BenchmarkX" "20 % slower in 10 of 10 pairs" -v gate=1 \
	< <(tsv BenchmarkX "$tight" "120 121 119 120 122 118 120 121 119 120")
check 1 " 2/10  8/10  REGRESSED" "slower in 8 of 10 pairs, beyond the IQR" -v gate=1 \
	< <(tsv BenchmarkX "$tight" "130 131 129 130 132 128 130 131 90 90")
check 0 " 2/10  8/10  ok" "slower in 8 of 10 pairs, +18 % inside the IQR" -v gate=1 \
	< <(tsv BenchmarkX "$wide" "125 100 150 112 137 87 162 118 99 80")
check 0 " 3/10  7/10  ok" "slower in 7 of 10 pairs, beyond the IQR" -v gate=1 \
	< <(tsv BenchmarkX "$tight" "130 131 129 130 132 128 130 90 90 90")
check 0 " 0/10  7/10  ok" "3 ties count for neither side" -v gate=1 \
	< <(tsv BenchmarkX "$tight" "130 131 129 130 132 128 130 101 99 100")
check 0 "base only" "a benchmark the change no longer has" -v gate=1 \
	< <(tsv BenchmarkX "$tight" "")

# Counts: a rise in allocs/op or B/op beyond the tolerance fails the gate
# however many pairs it lost and however the time went; the A/A jitter of
# B/op does not.
check 1 "regressed: BenchmarkX:allocs/op" "median allocs/op 1 -> 2 in 6 of 10 pairs, time unchanged" -v gate=1 \
	< <(tsv BenchmarkX "$tight" "99 102 100 101 101 99 99 102 98 99"
		tsv BenchmarkX:allocs/op "1 1 1 1 1 1 1 1 1 1" "2 2 1 2 1 2 1 2 1 2"
		tsv BenchmarkX:B/op "32 32 32 32 32 32 32 32 32 32" "32 32 32 32 32 32 32 32 32 32")
check 0 " 0/10  0/10  ok" "allocs/op and B/op hold within the A/A jitter" -v gate=1 \
	< <(tsv BenchmarkX "$tight" "99 102 100 101 101 99 99 102 98 99"
		tsv BenchmarkX:allocs/op "8 8 8 8 8 8 8 8 8 8" "8 8 8 8 8 8 8 8 8 8"
		tsv BenchmarkX:B/op "564 574 577 570 560 580 571 575 566 573" "570 578 583 566 575 590 570 577 580 574")

# The confirmation pass: a benchmark fails the gate only when the re-run
# of what the first pass flagged flags it again.
slow="120 121 119 120 122 118 120 121 119 120"
aa="99 102 100 101 101 99 99 102 98 99"
check 0 "not confirmed: BenchmarkX" "flagged once, then passes" -v gate=1 \
	<(tsv BenchmarkX "$tight" "$slow"; tsv BenchmarkY "$tight" "$aa") <(tsv BenchmarkX "$tight" "$aa")
check 1 "regressed: BenchmarkX" "flagged twice" -v gate=1 \
	<(tsv BenchmarkX "$tight" "$slow"; tsv BenchmarkY "$tight" "$aa") <(tsv BenchmarkX "$tight" "$slow")
check 0 "pass 2 of 2" "the confirmation pass is what is printed" -v gate=1 \
	<(tsv BenchmarkX "$tight" "$slow") <(tsv BenchmarkX "$tight" "$aa")

check 0 "10/10  0/10  resolved" "ops_per_s higher in 10 of 10 pairs" -v higher=ops_per_s \
	< <(tsv ops_per_s "$tight" "120 121 119 120 122 118 120 121 119 120")
check 0 "10/10  0/10  resolved" "lock_p50_us lower in 10 of 10 pairs" -v higher=ops_per_s \
	< <(tsv lock_p50_us "$tight" "80 81 79 80 82 78 80 81 79 80")
check 0 " 8/10  0/10  unresolved" "2 ties count for neither side" -v higher=ops_per_s \
	< <(tsv ops_per_s "$tight" "120 121 119 120 122 118 120 121 99 100")
check 0 "10/10  0/10  unresolved" "won 10 of 10 pairs inside the IQR" -v higher=ops_per_s \
	< <(tsv ops_per_s "$wide" "101 81 121 91 111 71 131 96 106 86")
check 1 "change run of pair 2: failed 3" "a run with failed operations" -v higher=ops_per_s \
	< <(tsv ops_per_s "$tight" "$tight"; tsv failed "0 0" "0 3")
check 1 "base run of pair 1: correct false" "a run that is not correct" -v higher=ops_per_s \
	< <(tsv ops_per_s "$tight" "$tight"; tsv correct "false true" "true true")

if ((failed)); then exit 1; fi
echo "pairs.awk: verdicts ok"
