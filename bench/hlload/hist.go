package main

import (
	"math/bits"
	"sort"
)

// hist is a fixed-size log-linear latency histogram over nanoseconds:
// each power of two is cut into histSub linear sub-buckets, so a
// recorded value is off by at most 1/(2*histSub) < 0.4 % of itself once
// quantile reports the bucket midpoint. Recording never allocates; one
// hist belongs to one goroutine.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// 40 octaves above the linear range reach 2^47 ns (~39 h).
	histBuckets = 41 * histSub
)

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	shift := bits.Len64(uint64(ns)) - (histSubBits + 1)
	i := (shift+1)*histSub + int(uint64(ns)>>uint(shift)) - histSub
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histBounds returns the lower bound and width of bucket i in nanoseconds.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	shift := uint(i/histSub - 1)
	return float64(uint64(histSub+i%histSub) << shift), float64(uint64(1) << shift)
}

func (h *hist) record(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty),
// interpolating by rank inside the bucket it falls in.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+uint64(c) > rank {
			lo, width := histBounds(i)
			return lo + width*(float64(rank-seen)+0.5)/float64(c)
		}
		seen += uint64(c)
	}
	return 0 // unreachable: the counts sum to n > rank
}

// median returns the median of vs (mean of the middle pair for an even
// count, 0 for none). It is how per-window figures become one number: a
// co-tenant burst spoils one window, not the result.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
