#!/usr/bin/env bash
# Runs the whole suite N times (`go test -count=1 ./...`) for failures
# too rare to show in one pass, and keeps the complete log of every
# failing run under a directory of its own per soak; passing runs leave
# nothing. Prints each failing run's failed tests and its log's path,
# and exits non-zero if any run failed:
#
#   bash scripts/soak.sh [N] [DIR]    (defaults: 10, .soak/<timestamp>)
set -uo pipefail

n=${1:-10}
dir=${2:-.soak/$(date +%Y%m%d-%H%M%S)}
go=${GO:-go}
mkdir -p "$dir"

failed=0
for i in $(seq 1 "$n"); do
	log="$dir/run-$i.log"
	if $go test -count=1 ./... >"$log" 2>&1; then
		rm -f "$log"
		echo "soak: run $i/$n ok"
		continue
	fi
	failed=$((failed + 1))
	echo "soak: run $i/$n FAILED, whole log in $log"
	grep -E -e '^[[:space:]]*--- FAIL' -e '^FAIL' -e '^panic:' "$log" | sed 's/^/    /'
done
echo "soak: $failed of $n runs failed"
if [ "$failed" -eq 0 ]; then
	rmdir "$dir" 2>/dev/null
	exit 0
fi
echo "soak: logs under $dir"
exit 1
