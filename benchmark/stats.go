package main

import (
	"math"
	"math/bits"
	"sort"
)

// median returns the middle of xs (mean of the two middles for even n);
// 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// percentile returns the q-quantile (nearest-rank) of an ascending slice.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// hist is a fixed-size log-linear latency histogram (32 sub-buckets per power
// of two: ≤3% quantile error), used where keeping every sample would cost too
// much memory: one sample per op of a traced batch run.
type hist struct {
	n      uint64
	counts [64 * histSub]uint32
}

const histSub = 32

func histBucket(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 6 // ns>>exp is in [32, 64)
	return (exp+1)*histSub + int(ns>>uint(exp)) - histSub
}

func (h *hist) add(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the lower edge of the bucket holding the q-quantile.
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(h.n)))
	if want < 1 {
		want = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen >= want {
			if i < histSub {
				return int64(i)
			}
			exp := i/histSub - 1
			return int64(i%histSub+histSub) << uint(exp)
		}
	}
	return 0
}
