package main

import (
	"sort"
	"testing"
)

// TestTailQuantileLeavesTenBeyond: the reported percentile is the highest
// one (capped at p99) with at least ten samples strictly above it.
func TestTailQuantileLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 50, 100, 999, 1000, 1001, 5000} {
		q, ok := tailQuantile(n, 0.99)
		if !ok {
			t.Fatalf("n=%d: no tail quantile", n)
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v := quantile(xs, q)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minTail {
			t.Errorf("n=%d: q=%.5f leaves %d samples beyond, want >= %d", n, q, beyond, minTail)
		}
		if n >= 1000 && q != 0.99 {
			t.Errorf("n=%d: q=%.5f, want 0.99 once ten samples lie beyond it", n, q)
		}
		if n < 1000 && q >= 0.99 {
			t.Errorf("n=%d: q=%.5f claims a p99 with fewer than ten samples beyond", n, q)
		}
	}
	for _, n := range []int{0, 1, 10} {
		if _, ok := tailQuantile(n, 0.99); ok {
			t.Errorf("n=%d: a tail quantile needs more than %d samples", n, minTail)
		}
	}
}

// TestSummarizeWindows: with enough samples the p99 is the median of the
// windows' p99s, so one stalled window does not move it.
func TestSummarizeWindows(t *testing.T) {
	var ms []float64
	for w := 0; w < 5; w++ {
		for i := 0; i < p99Window; i++ {
			v := 1.0
			if i%50 == 0 {
				v = 2 // 2% of each window
			}
			if w == 2 && i < 50 {
				v = 100 // a stall in one window
			}
			ms = append(ms, v)
		}
	}
	s, ok := summarize(ms)
	if !ok || len(s.Tails) != 5 {
		t.Fatalf("ok=%v windows=%d, want 5 windows", ok, len(s.Tails))
	}
	if s.P99 != 2 {
		t.Errorf("p99 = %v, want 2 (the stalled window's tail is outvoted)", s.P99)
	}
	if _, ok := summarize(ms[:999]); ok {
		t.Error("999 samples reported as supporting a p99")
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if m := median(xs); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if !sort.Float64sAreSorted([]float64{xs[1], xs[2]}) || xs[0] != 3 {
		t.Error("median reordered its input")
	}
}
