package telemetry

import (
	"math"
	"testing"
	"time"
)

func TestBucketIndexMonotone(t *testing.T) {
	// Indices must be non-decreasing in the value and every bucket's
	// upper bound must map back to that bucket.
	last := -1
	for _, v := range []uint64{0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 100,
		1000, 1 << 20, 1<<20 + 1, 1 << 39, 1<<40 - 1, 1 << 40, 1 << 50, math.MaxInt64} {
		i := bucketIndex(v)
		if i < last {
			t.Fatalf("bucketIndex(%d) = %d < previous %d", v, i, last)
		}
		last = i
	}
	for i := 0; i < numBuckets-1; i++ {
		u := bucketUpper(i)
		if got := bucketIndex(uint64(u)); got != i {
			t.Errorf("bucketUpper(%d) = %d maps to bucket %d", i, u, got)
		}
		if got := bucketIndex(uint64(u) + 1); got != i+1 {
			t.Errorf("bucketUpper(%d)+1 = %d maps to bucket %d, want %d", i, u+1, got, i+1)
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("zero value not empty")
	}
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 5050 {
		t.Errorf("sum = %d", h.Sum())
	}
	if h.Max() != 100 {
		t.Errorf("max = %d", h.Max())
	}
	if h.Mean() != 50 {
		t.Errorf("mean = %d", h.Mean())
	}
	s := h.Snapshot()
	// Log-linear quantiles are within 12.5% above the true value.
	checks := []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1.0, 100}}
	for _, c := range checks {
		got := s.Quantile(c.q)
		if got < c.want || float64(got) > float64(c.want)*1.125+1 {
			t.Errorf("q%.2f = %d, want within [%d, %.0f]", c.q, got, c.want, float64(c.want)*1.125+1)
		}
	}
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Error("reset did not clear")
	}
	if s := h.Snapshot(); s.Quantile(0.5) != 0 {
		t.Error("empty quantile not 0")
	}
}

func TestHistogramNegativeClamp(t *testing.T) {
	var h Histogram
	h.ObserveDuration(-5 * time.Second)
	if h.Count() != 1 || h.Max() != 0 || h.Sum() != 0 {
		t.Errorf("negative sample not clamped: count=%d max=%d sum=%d", h.Count(), h.Max(), h.Sum())
	}
}

// TestHistogramSumSaturates is the mean-latency overflow regression
// test: very long runs must saturate the sum instead of wrapping into
// negative means.
func TestHistogramSumSaturates(t *testing.T) {
	var h Histogram
	h.Observe(math.MaxInt64)
	h.Observe(math.MaxInt64)
	h.Observe(math.MaxInt64)
	if h.Sum() != math.MaxInt64 {
		t.Errorf("sum = %d, want saturation at MaxInt64", h.Sum())
	}
	if h.Mean() < 0 {
		t.Errorf("mean went negative: %d", h.Mean())
	}
	// Saturation must be sticky across further small additions.
	h.Observe(1)
	if h.Sum() != math.MaxInt64 || h.Mean() < 0 {
		t.Errorf("saturation not sticky: sum=%d mean=%d", h.Sum(), h.Mean())
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	var h Histogram
	v := int64(1) << 45 // beyond maxExp
	h.Observe(v)
	s := h.Snapshot()
	if got := s.Quantile(0.99); got != v {
		t.Errorf("overflow quantile = %d, want capped at exact max %d", got, v)
	}
}
