package obs

import (
	"math/bits"
	"sync/atomic"
)

// Histogram is a fixed-bucket log-scale latency histogram. Buckets are
// HDR-style: values below 2^histSubBits get exact unit buckets, and every
// octave above that is split into 2^histSubBits linear sub-buckets, which
// bounds the relative quantile error at 1/2^histSubBits (12.5%). The
// layout is identical for every Histogram, so snapshots merge by plain
// bucket-count addition.
//
// Observe is safe for concurrent use and performs zero heap allocations;
// it is annotated //vetkit:hotpath and pinned by TestHistogramObserveAllocs.
// Values are int64 (nanoseconds by convention); negative values clamp to 0.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

const (
	// histSubBits is the number of linear sub-bucket bits per octave.
	histSubBits = 3
	histSubCnt  = 1 << histSubBits // sub-buckets per octave

	// Octave exponents run histSubBits..62 (int64 values only), each
	// contributing histSubCnt buckets, plus histSubCnt exact unit
	// buckets for values below 2^histSubBits.
	histOctaves = 63 - histSubBits
	histBuckets = histSubCnt + histOctaves*histSubCnt
)

// bucketIndex maps a non-negative value to its bucket.
//
//vetkit:hotpath
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < histSubCnt {
		return int(u)
	}
	exp := bits.Len64(u) - 1
	sub := int((u >> (uint(exp) - histSubBits)) & (histSubCnt - 1))
	return (exp-histSubBits)<<histSubBits + histSubCnt + sub
}

// bucketMax returns the largest value that maps to bucket i (the bucket's
// inclusive upper bound), the inverse of bucketIndex.
func bucketMax(i int) int64 {
	if i < histSubCnt {
		return int64(i)
	}
	oct := uint(i-histSubCnt) >> histSubBits
	sub := uint64(i-histSubCnt) & (histSubCnt - 1)
	exp := oct + histSubBits
	return int64(uint64(1)<<exp + (sub+1)<<(exp-histSubBits) - 1)
}

// Observe records one value. Concurrency-safe, zero allocations.
//
//vetkit:hotpath
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// HistSnapshot is a point-in-time copy of a Histogram, safe to read,
// merge, and query without synchronization.
type HistSnapshot struct {
	Counts [histBuckets]uint64
	Count  int64
	Sum    int64
	Max    int64
}

// Snapshot copies the histogram's current state. Concurrent Observe
// calls may land between bucket reads; the snapshot is still a valid
// histogram (every counted observation is in some bucket).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	// Bucket totals are authoritative for quantiles: derive Count from
	// them so a torn read can never make a quantile rank unreachable.
	var n int64
	for _, c := range s.Counts {
		n += int64(c)
	}
	s.Count = n
	return s
}

// Merge adds another snapshot into s. Merging is associative and
// commutative: bucket layouts are identical across all histograms.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Quantile returns the nearest-rank q-quantile (0 < q <= 1) as the upper
// bound of the bucket holding that rank, capped at the observed maximum.
// Returns 0 for an empty snapshot.
func (s *HistSnapshot) Quantile(q float64) int64 {
	if s.Count <= 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if float64(rank) < q*float64(s.Count) {
		rank++ // ceil
	}
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for i, c := range s.Counts {
		cum += int64(c)
		if cum >= rank {
			v := bucketMax(i)
			if v > s.Max && s.Max > 0 {
				v = s.Max
			}
			return v
		}
	}
	return s.Max
}

// Mean returns the arithmetic mean of all observed values, 0 if empty.
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Count returns the number of recorded observations without snapshotting.
func (h *Histogram) Count() int64 {
	return h.count.Load()
}

// Quantile is a convenience for h.Snapshot().Quantile(q).
func (h *Histogram) Quantile(q float64) int64 {
	s := h.Snapshot()
	return s.Quantile(q)
}
