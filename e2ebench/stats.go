package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a tail estimate resting on fewer observations is noise.
const minTail = 10

// tailQuantile returns the highest quantile q ≤ want that leaves at least
// minTail of n samples strictly above it, and whether one exists. For n ≥
// 1000 and want 0.99 that is 0.99 itself.
func tailQuantile(n int, want float64) (float64, bool) {
	if n <= minTail {
		return 0, false
	}
	q := 1 - float64(minTail)/float64(n)
	if q > want {
		q = want
	}
	return q, true
}

// quantile returns the q-quantile of sorted by the nearest-rank rule: the
// smallest sample with at least q·n samples at or below it (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps q = k/n from rounding up a rank.
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the median of xs (the mean of the two middle values for an
// even count) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencySummary is a latency distribution reduced to what the benchmark
// reports: the median and the p99, with the sample count they rest on.
type latencySummary struct {
	N     int       `json:"samples"`
	P50   float64   `json:"p50_ms"`
	P99   float64   `json:"p99_ms"`
	TailQ float64   `json:"tail_quantile"`
	Tails []float64 `json:"window_p99_ms,omitempty"`
	Mean  float64   `json:"mean_ms"`
}

// p99Window is the sample count of one p99 window: ten samples beyond the
// p99.
const p99Window = 100 * minTail

// summarize reduces latencies (milliseconds, in send order) to a
// latencySummary. The p99 is the median of the p99s of consecutive windows
// of at least p99Window samples each: a transient stall — a host hiccup, a
// collection in one of the processes — then moves one window's tail, not
// the reported one. With fewer than p99Window samples the tail is the
// highest quantile that leaves ten samples beyond it, and ok is false.
func summarize(ms []float64) (s latencySummary, ok bool) {
	s.N = len(ms)
	if s.N == 0 {
		return s, false
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	s.P50, s.Mean = quantile(sorted, 0.5), sum/float64(s.N)
	if s.N < p99Window {
		if q, supported := tailQuantile(s.N, 0.99); supported {
			s.TailQ, s.P99 = q, quantile(sorted, q)
		}
		return s, false
	}
	s.TailQ = 0.99
	s.Tails = make([]float64, s.N/p99Window)
	for w := range s.Tails {
		win := append([]float64(nil), ms[w*s.N/len(s.Tails):(w+1)*s.N/len(s.Tails)]...)
		sort.Float64s(win)
		s.Tails[w] = quantile(win, 0.99)
	}
	s.P99 = median(s.Tails)
	return s, true
}

// relErr is |got-want|/|want|, or the absolute difference when want is 0.
func relErr(got, want float64) float64 {
	d := math.Abs(got - want)
	if scale := math.Abs(want); scale > 0 {
		return d / scale
	}
	return d
}
