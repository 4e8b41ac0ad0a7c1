#!/usr/bin/env bash
# Fails when an alternative of a Makefile `go test -run '<pattern>' <pkg>...`
# names no test. `go test -run` passes after running nothing, so a test
# deleted or renamed under a target would silently drop out of it. For
# every such line (the '^$$' of the fuzz and bench lines excepted) this
# lists the package's tests matching the pattern with `go test -list` and
# checks that each |-separated alternative matches one of them:
#
#   bash scripts/runpatterns.sh [Makefile]
set -euo pipefail

makefile=${1:-Makefile}
go=${GO:-go}
status=0

while IFS= read -r line; do
	pattern=$(sed -E "s/.*-run '([^']*)'.*/\1/" <<<"$line")
	pattern=${pattern//\$\$/\$}
	[[ $pattern == '^$' ]] && continue
	pkgs=()
	for word in $(sed -E "s/.*-run '[^']*'//" <<<"$line"); do
		[[ $word == .* ]] && pkgs+=("$word")
	done
	listed=$($go test -list "$pattern" "${pkgs[@]}" | grep -E '^(Test|Benchmark|Fuzz|Example)' || true)
	IFS='|' read -ra alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		if ! grep -qE -- "$alt" <<<"$listed"; then
			echo "$makefile: -run alternative '$alt' in ${pkgs[*]} names no test" >&2
			status=1
		fi
	done
done < <(grep -E -- "-run '" "$makefile")

exit $status
