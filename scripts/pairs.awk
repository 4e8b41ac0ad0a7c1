# The summary of alternating base/change pairs, for both modes of
# scripts/pairs.sh. Input: one tab-separated line per measurement,
#
#   SIDE  PAIR  NAME  VALUE        (SIDE is "base" or "change")
#
# Output, per name in first-seen order: the base runs' quartiles, the
# change median and its change, the pairs the change won and lost (a tie
# counts for neither side) and a verdict. Lower is better unless the name
# is listed in -v higher="NAME ...".
#
#   -v gate=0 (default): "resolved" when the change wins >= 9 in 10 pairs
#     and the medians differ by more than the base inter-quartile
#     distance, "unresolved" otherwise: the rule a claimed gain must meet.
#   -v gate=1: "REGRESSED" when the change loses >= 8 in 10 pairs and its
#     median is worse than the base median by more than both the base
#     inter-quartile distance and 10 %; the exit status is then 1.
#
# A row named "failed" must hold 0 and one named "correct" must hold
# "true": they check a run and are not summarized. Any other value is
# printed and makes the exit status 1.
BEGIN {
	FS = "\t"
	split(higher, hi, " ")
	for (i in hi) up[hi[i]] = 1
}

$3 == "failed" || $3 == "correct" {
	if ($3 == "failed" ? $4 != "0" : $4 != "true") {
		printf "%s run of pair %d: %s %s\n", $1, $2, $3, $4
		bad = 1
	}
	next
}

{
	if (!($3 in seen)) {
		seen[$3] = 1
		order[++names] = $3
		if (length($3) > w) w = length($3)
	}
	v[$1, $2, $3] = $4 + 0
	if ($2 + 0 > n) n = $2 + 0
}

function sort(a, k,    i, j, t) {
	for (i = 2; i <= k; i++)
		for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
}

# quantile(a, k, p): the p-quantile of the sorted a[1..k], interpolated
# between order statistics (the median at p = 0.5).
function quantile(a, k, p,    r, i) {
	r = 1 + (k - 1) * p
	i = int(r)
	return i < k ? a[i] + (r - i) * (a[i + 1] - a[i]) : a[k]
}

END {
	row = "%-" w "s %11s %11s %11s %11s %8s %5s %5s  %s\n"
	num = "%-" w "s %11.4g %11.4g %11.4g %11.4g %+7.1f%% %2d/%-2d %2d/%-2d  %s\n"
	printf "\n" row, "", "base Q1", "base median", "base Q3", "change med.", "change", "won", "lost", "verdict"
	for (o = 1; o <= names; o++) {
		name = order[o]
		kb = kx = np = won = lost = 0
		for (i = 1; i <= n; i++) {
			if (("base", i, name) in v) b[++kb] = v["base", i, name]
			if (("change", i, name) in v) x[++kx] = v["change", i, name]
			if (!(("base", i, name) in v) || !(("change", i, name) in v)) continue
			np++
			d = v["change", i, name] - v["base", i, name]
			if (name in up) d = -d
			if (d < 0) won++
			else if (d > 0) lost++
		}
		if (!kb || !kx) {
			printf row, name, "", "", "", "", "", "", "", kb ? "base only" : "change only"
			continue
		}
		sort(b, kb)
		sort(x, kx)
		q1 = quantile(b, kb, 0.25)
		mb = quantile(b, kb, 0.5)
		q3 = quantile(b, kb, 0.75)
		mx = quantile(x, kx, 0.5)
		worse = (name in up) ? mb - mx : mx - mb
		if (gate) {
			verdict = "ok"
			if (lost * 10 >= 8 * np && worse > q3 - q1 && worse > 0.10 * mb) {
				verdict = "REGRESSED"
				regressed = regressed " " name
			}
		} else {
			verdict = won * 10 >= 9 * np && (worse < 0 ? -worse : worse) > q3 - q1 ? "resolved" : "unresolved"
		}
		printf num, name, q1, mb, q3, mx, mb ? 100 * (mx - mb) / mb : 0, won, np, lost, np, verdict
	}
	if (regressed != "") {
		print "\nregressed:" regressed
		bad = 1
	}
	exit bad
}
