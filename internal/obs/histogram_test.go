package obs

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// Every value must land in exactly one bucket whose bounds contain it, and
// bucket upper bounds must be strictly increasing — the invariants both the
// quantile walk and the Prometheus `le` exposition rely on.
func TestHistBucketLayout(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < NumHistBuckets; i++ {
		ub := HistBucketUpper(i)
		if ub <= prev {
			t.Fatalf("bucket %d upper %d not above previous %d", i, ub, prev)
		}
		if got := HistBucketIndex(ub); got != i {
			t.Fatalf("upper bound %d of bucket %d maps to bucket %d", ub, i, got)
		}
		prev = ub
	}
	if HistBucketUpper(NumHistBuckets-1) != math.MaxInt64 {
		t.Fatalf("last bucket upper = %d, want MaxInt64", HistBucketUpper(NumHistBuckets-1))
	}

	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {15, 15},
		{16, 16}, {17, 17}, {31, 31}, // first split octave still exact
		{32, 32}, {33, 32}, {34, 33}, // width-2 buckets
		{math.MaxInt64, NumHistBuckets - 1},
	}
	for _, tc := range cases {
		if got := HistBucketIndex(tc.v); got != tc.want {
			t.Errorf("HistBucketIndex(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}

	// Relative error bound: a bucket's width is at most 1/16 of its lower
	// bound, so the reported upper bound overestimates by <= 6.25% + 1.
	for _, v := range []int64{100, 1000, 12345, 1 << 20, 987654321, 1 << 40} {
		ub := HistBucketUpper(HistBucketIndex(v))
		if ub < v {
			t.Fatalf("upper bound %d below value %d", ub, v)
		}
		if float64(ub-v) > float64(v)/16+1 {
			t.Errorf("bucket error for %d: upper %d exceeds 6.25%% bound", v, ub)
		}
	}
}

// Histogram merge must be associative and commutative: any merge tree over
// any partition of the observations yields the identical snapshot. This is
// the acceptance-criteria property that makes worker-shipped histograms
// arrival-order independent.
func TestHistogramMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	randomSnap := func() HistSnapshot {
		var h Histogram
		n := rng.Intn(200)
		for i := 0; i < n; i++ {
			// Mix magnitudes so buckets across many octaves are hit.
			h.Observe(rng.Int63n(1 << uint(1+rng.Intn(40))))
		}
		return h.Snapshot()
	}
	for iter := 0; iter < 200; iter++ {
		a, b, c := randomSnap(), randomSnap(), randomSnap()
		ab := a.Merge(b)
		if ba := b.Merge(a); !histEqual(ab, ba) {
			t.Fatalf("iter %d: merge not commutative:\na+b=%+v\nb+a=%+v", iter, ab, ba)
		}
		left := ab.Merge(c)
		right := a.Merge(b.Merge(c))
		if !histEqual(left, right) {
			t.Fatalf("iter %d: merge not associative:\n(a+b)+c=%+v\na+(b+c)=%+v", iter, left, right)
		}
		zero := HistSnapshot{}
		if got := a.Merge(zero); !histEqual(got, a) {
			t.Fatalf("iter %d: zero not identity: %+v vs %+v", iter, got, a)
		}
	}
}

// histEqual compares snapshots up to trailing-zero bucket padding (Merge
// allocates max-length vectors; Snapshot trims).
func histEqual(a, b HistSnapshot) bool {
	if a.Count != b.Count || a.Sum != b.Sum {
		return false
	}
	trim := func(v []int64) []int64 {
		for len(v) > 0 && v[len(v)-1] == 0 {
			v = v[:len(v)-1]
		}
		return v
	}
	x, y := trim(a.Counts), trim(b.Counts)
	if len(x) == 0 && len(y) == 0 {
		return true
	}
	return reflect.DeepEqual(x, y)
}

// A one-shot merge of per-worker histograms must equal a single histogram
// that saw every observation — the distributed-fold correctness property.
func TestHistogramShardMergeEqualsWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var whole Histogram
	shards := make([]Histogram, 4)
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(1 << 30)
		whole.Observe(v)
		shards[rng.Intn(len(shards))].Observe(v)
	}
	var merged HistSnapshot
	for i := range shards {
		merged = merged.Merge(shards[i].Snapshot())
	}
	if !histEqual(merged, whole.Snapshot()) {
		t.Fatal("merged shard snapshots differ from the whole-stream histogram")
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Sum != 1000*1001/2 {
		t.Fatalf("count/sum = %d/%d", s.Count, s.Sum)
	}
	for _, tc := range []struct{ q, exact float64 }{
		{0.5, 500}, {0.9, 900}, {0.99, 990}, {1.0, 1000},
	} {
		got := float64(s.Quantile(tc.q))
		if got < tc.exact || got > tc.exact*1.07+1 {
			t.Errorf("Quantile(%v) = %v, want within bucket error of %v", tc.q, got, tc.exact)
		}
	}
	if got := (HistSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %d, want 0", got)
	}
	if m := s.Mean(); m != 500 {
		t.Errorf("Mean = %d, want 500", m)
	}
}

// AddSnapshot (the wire-fold path into a live histogram) must agree with the
// pure Merge, and ignore out-of-range buckets from malformed senders.
func TestHistogramAddSnapshot(t *testing.T) {
	var a, b Histogram
	for i := int64(0); i < 300; i++ {
		a.Observe(i * 7)
		b.Observe(i * 13)
	}
	want := a.Snapshot().Merge(b.Snapshot())
	a.AddSnapshot(b.Snapshot())
	if !histEqual(a.Snapshot(), want) {
		t.Fatal("AddSnapshot differs from Merge")
	}

	var h Histogram
	s := HistSnapshot{Count: 2, Sum: 5, Counts: make([]int64, NumHistBuckets+10)}
	s.Counts[3], s.Counts[NumHistBuckets+5] = 1, 1
	h.AddSnapshot(s)
	if got := h.Snapshot(); got.Count != 1 || len(got.Counts) != 4 || got.Sum != 5 {
		t.Fatalf("oversized snapshot not folded: %+v", got)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) * 31)
	}
}
