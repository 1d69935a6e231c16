package main

import "math/bits"

// hist is a log-linear histogram of non-negative int64 values
// (nanoseconds, usually): values below 32 get a bucket each, and every
// power of two above is split into 32 equal buckets, so a bucket is at
// most 1/32 of its values wide. Quantiles interpolate inside a bucket,
// so they are not quantised to bucket edges. It is small (7.7 KB) and
// never allocates after creation, so the harness's own latency records
// stay a small part of the heap the collector paces itself by.
type hist struct {
	counts [32 * 60]uint32
	n      int64
	sum    int64
}

func bucketOf(v int64) int {
	if v < 32 {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - 6 // v>>e is in [32, 64)
	return (e+1)*32 + int(v>>e) - 32
}

// bucketRange returns the lowest value of bucket i and its width.
func bucketRange(i int) (lo, width float64) {
	if i < 32 {
		return float64(i), 1
	}
	e := i/32 - 1
	return float64(int64(32+i%32) << e), float64(int64(1) << e)
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile (0 ≤ q ≤ 1), interpolating linearly
// inside the bucket that holds it; 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := bucketRange(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(len(h.counts) - 1)
	return lo + w
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}
