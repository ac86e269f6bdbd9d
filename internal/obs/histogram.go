package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram is a fixed-layout, log-bucketed latency histogram in the HDR
// style: values below 2^histSubBits land in exact identity buckets, and every
// larger power-of-two octave is split into 2^histSubBits sub-buckets, giving
// a constant relative error of at most 1/2^histSubBits (6.25%) across the
// whole int64 range. The bucket layout is a pure function of the value — no
// configuration, no rescaling — so two histograms recorded on different
// workers (or different machines) merge by bucket-wise addition, which is
// associative and commutative by construction. That determinism is what lets
// the distributed coordinator fold worker-shipped histograms in any arrival
// order and still expose one canonical distribution.
//
// All mutation is atomic: the owning worker writes, Snapshot reads
// concurrently — the same single-writer / concurrent-reader contract the
// Collector counters use. The observation count is the sum of the buckets,
// so a snapshot taken mid-write is still a consistent distribution. The zero
// value is ready to use.
type Histogram struct {
	counts [NumHistBuckets]atomic.Int64
	sum    atomic.Int64
}

// histSubBits is the sub-bucket resolution: 16 sub-buckets per octave.
const histSubBits = 4

// NumHistBuckets is the total bucket count of the fixed layout: 2^histSubBits
// identity buckets plus 16 sub-buckets for each of the 60 remaining octaves
// of an int64.
const NumHistBuckets = (1 << histSubBits) + (63-histSubBits)*(1<<histSubBits)

// HistBucketIndex maps a value to its bucket. Negative values clamp to
// bucket 0 (timing can produce 0ns on coarse clocks, never negatives, but the
// wire path must not be able to index out of range).
func HistBucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 1<<histSubBits {
		return int(u)
	}
	e := bits.Len64(u) - 1 // 2^e <= u < 2^(e+1), e >= histSubBits
	sub := int(u>>(uint(e)-histSubBits)) - (1 << histSubBits)
	return (1 << histSubBits) + (e-histSubBits)*(1<<histSubBits) + sub
}

// HistBucketUpper returns the largest value that maps to bucket i — the
// inclusive upper bound used as the bucket's reported quantile value and as
// the Prometheus `le` label.
func HistBucketUpper(i int) int64 {
	if i < 1<<histSubBits {
		return int64(i)
	}
	b := i - 1<<histSubBits
	e := b>>histSubBits + histSubBits
	sub := b & (1<<histSubBits - 1)
	shift := uint(e) - histSubBits
	hi := (uint64(sub) + 1<<histSubBits + 1) << shift
	if hi == 0 || hi-1 > math.MaxInt64 { // top octave overflows: clamp
		return math.MaxInt64
	}
	return int64(hi - 1)
}

// Observe records one value. Safe for concurrent use.
func (h *Histogram) Observe(v int64) {
	h.counts[HistBucketIndex(v)].Add(1)
	if v > 0 {
		h.sum.Add(v)
	}
}

// Snapshot reads a plain, mergeable copy of the histogram. The bucket slice
// is trimmed to the highest populated bucket (usually a few dozen entries of
// the 976-bucket layout), so snapshots are cheap to ship and to hold.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Sum = h.sum.Load()
	top := -1
	var buf [NumHistBuckets]int64
	for i := range h.counts {
		if n := h.counts[i].Load(); n != 0 {
			buf[i] = n
			s.Count += n
			top = i
		}
	}
	if s.Count > 0 {
		s.Counts = append([]int64(nil), buf[:top+1]...)
	}
	return s
}

// AddSnapshot folds a snapshot into the live histogram bucket-wise — the
// merge the distributed coordinator applies when a worker ships its shard.
func (h *Histogram) AddSnapshot(s HistSnapshot) {
	if h == nil {
		return
	}
	for i, n := range s.Counts {
		if n != 0 && i < NumHistBuckets {
			h.counts[i].Add(n)
		}
	}
	h.sum.Add(s.Sum)
}

// HistSnapshot is a plain (non-atomic) copy of one histogram: the trimmed
// dense bucket vector plus the exact observation count and sum. Merging is
// bucket-wise addition — associative and commutative, so any merge tree over
// any partition of the observations yields the identical snapshot (see
// TestHistogramMergeProperty).
type HistSnapshot struct {
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Counts []int64 `json:"counts,omitempty"`
}

// Merge returns the bucket-wise sum of h and o without mutating either.
func (h HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	n := len(h.Counts)
	if len(o.Counts) > n {
		n = len(o.Counts)
	}
	out := HistSnapshot{Count: h.Count + o.Count, Sum: h.Sum + o.Sum}
	if n == 0 {
		return out
	}
	out.Counts = make([]int64, n)
	copy(out.Counts, h.Counts)
	for i, v := range o.Counts {
		out.Counts[i] += v
	}
	return out
}

// Quantile returns the value at quantile q (0 < q <= 1) — the inclusive
// upper bound of the bucket containing the q-th observation, i.e. an
// overestimate by at most the bucket's relative width. Returns 0 for an
// empty histogram.
func (h HistSnapshot) Quantile(q float64) int64 {
	if h.Count <= 0 || len(h.Counts) == 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.Count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, n := range h.Counts {
		cum += n
		if cum >= target {
			return HistBucketUpper(i)
		}
	}
	return HistBucketUpper(len(h.Counts) - 1)
}

// Mean returns the exact mean of the recorded values (the sum is tracked
// exactly, outside the bucket quantization). 0 for an empty histogram.
func (h HistSnapshot) Mean() int64 {
	if h.Count <= 0 {
		return 0
	}
	return h.Sum / h.Count
}
