package main

import (
	"math"
	"testing"
	"time"
)

func samplesOf(ns ...int) []backlogSample {
	out := make([]backlogSample, len(ns))
	for i, n := range ns {
		out[i] = backlogSample{t: time.Duration(i) * 5 * time.Millisecond, n: n}
	}
	return out
}

// TestBacklogGrows: a backlog that fluctuates around a level is kept up
// with; one that trends upward is not.
func TestBacklogGrows(t *testing.T) {
	flat := make([]int, 200)
	noisy := make([]int, 200)
	rising := make([]int, 200)
	burst := make([]int, 200)
	for i := range flat {
		flat[i] = 3
		noisy[i] = []int{0, 5, 1, 7, 2, 0, 4}[i%7]
		rising[i] = i / 2
		if i >= 90 && i < 110 {
			burst[i] = 40 // a stall in the middle, drained afterwards
		}
	}
	cases := []struct {
		name string
		ns   []int
		want bool
	}{
		{"flat", flat, false},
		{"noisy", noisy, false},
		{"rising", rising, true},
		{"mid-phase burst", burst, false},
		{"too short", []int{0, 50, 100}, false},
	}
	for _, c := range cases {
		if got := backlogGrows(samplesOf(c.ns...), growthSlack(2000, 2)); got != c.want {
			t.Errorf("%s: backlogGrows = %v, want %v", c.name, got, c.want)
		}
	}
	if s := growthSlack(100, 2); s != 4 {
		t.Errorf("growthSlack(100, 2) = %v, want the connections' floor 4", s)
	}
	if s := growthSlack(10000, 2); s != 200 {
		t.Errorf("growthSlack(10000, 2) = %v, want 2%%, 200", s)
	}
}

// TestMaxRateSearch: trials pool per capacity share at their mean rate;
// stolen trials drop out unless a share has no other; a trial fails on its
// p99, a growing backlog or a failed request; the failing shares are fitted
// non-decreasing and the estimate is where the fit crosses one half.
func TestMaxRateSearch(t *testing.T) {
	ok := func(share, rate float64) trial { return trial{Share: share, Rate: rate, P99: 5} }
	slow := func(share, rate float64) trial { return trial{Share: share, Rate: rate, P99: 30} }
	m := maxRateSearch{LimitMs: 20, Floor: 50, FloorP99: 2, Trials: []trial{
		ok(0.8, 90), ok(0.8, 110), // mean rate 100
		ok(0.9, 200), {Share: 0.9, Rate: 200, P99: 5, Grows: true}, ok(0.9, 200), ok(0.9, 200),
		{Share: 0.9, Rate: 200, P99: 90, Stolen: true}, // left out
		ok(1.0, 300), slow(1.0, 300), // a lucky pass above a failing level...
		slow(1.1, 400), {Share: 1.1, Rate: 400, P99: 5, Fail: 1}, ok(1.1, 400), slow(1.1, 400),
		{Share: 1.2, Rate: 500, P99: 90, Stolen: true}, // the only trial at 1.2
	}}
	// Failing shares 0, 0, 1/4, 1/2, 3/4, 1: already monotone, so the fit
	// crosses one half exactly at 300.
	if got := m.estimate(); got != 300 {
		t.Errorf("estimate %v, want 300", got)
	}
	wantLevels := []rateLevel{
		{0, 50, 1, 0, 0}, {0.8, 100, 2, 0, 0}, {0.9, 200, 4, 1, 0.25},
		{1.0, 300, 2, 1, 0.5}, {1.1, 400, 4, 3, 0.75}, {1.2, 500, 1, 1, 1},
	}
	if len(m.Levels) != len(wantLevels) {
		t.Fatalf("levels %+v, want %+v", m.Levels, wantLevels)
	}
	for i, l := range m.Levels {
		if l != wantLevels[i] {
			t.Errorf("level %d = %+v, want %+v", i, l, wantLevels[i])
		}
	}

	// Out of order: 200 fails 2 of 2 and 300 passes 2 of 2; the fit pools
	// them at one half over both, so the crossing is at 200, where the fit
	// first reaches it from 0 at 100.
	m = maxRateSearch{LimitMs: 20, Floor: 50, FloorP99: 2, Trials: []trial{
		ok(0.8, 100), ok(0.8, 100), slow(0.9, 200), slow(0.9, 200), ok(1.0, 300), ok(1.0, 300), slow(1.1, 400),
	}}
	if got := m.estimate(); got != 200 {
		t.Errorf("out of order: estimate %v, want 200 (levels %+v)", got, m.Levels)
	}
	// Between levels: 0 failing at 100, 3 of 4 at 200: one half at 2/3 of
	// the gap.
	m = maxRateSearch{LimitMs: 20, Floor: 50, FloorP99: 2, Trials: []trial{
		ok(0.8, 100), slow(0.9, 200), slow(0.9, 200), slow(0.9, 200), ok(0.9, 200),
	}}
	if got := m.estimate(); math.Abs(got-(100+100*2.0/3)) > 1e-9 {
		t.Errorf("between levels: estimate %v, want %v", got, 100+100*2.0/3)
	}

	// Every level passing: the highest rate; the fixed rate itself failing:
	// the fixed rate.
	up := maxRateSearch{LimitMs: 20, Floor: 50, FloorP99: 2, Trials: []trial{ok(0.8, 100), ok(0.9, 200)}}
	if got := up.estimate(); got != 200 {
		t.Errorf("all passing: estimate %v, want 200", got)
	}
	down := maxRateSearch{LimitMs: 20, Floor: 50, FloorP99: 30, Trials: []trial{ok(0.8, 100)}}
	if got := down.estimate(); got != 50 {
		t.Errorf("fixed rate failing: estimate %v, want 50", got)
	}
	// A trial too short for a window counts its own tail as one.
	short := newTrial(1, 100, phaseResult{lat: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}}, 0, false)
	if len(short.Tails) != 1 || short.Tails[0] != short.P99 || short.P99 == 0 {
		t.Errorf("short trial tails %v p99 %v, want its own tail", short.Tails, short.P99)
	}
	if len(maxRateLevels) != openSlices-1 {
		t.Errorf("%d max-rate levels for %d trial slots", len(maxRateLevels), openSlices-1)
	}
}

// TestCalmSummary: slices that lost markedly more CPU to the hypervisor
// than the calmest one are left out and the rest pooled, unless the calm
// ones are too few for a p99: then the next-calmest join them.
func TestCalmSummary(t *testing.T) {
	mk := func(steal, v float64, n int) slice {
		r := phaseResult{attempted: n, elapsed: time.Second}
		for i := 0; i < n; i++ {
			r.lat = append(r.lat, v)
		}
		return slice{Steal: steal, res: r}
	}
	s := []slice{mk(0.20, 9, 10), mk(0.01, 1, 1000), mk(0.015, 3, 3000), mk(0.30, 9, 10), mk(0.02, 2, 2000)}
	lat, rate := calmSummary(s)
	// Pooled: 1000 ones, 3000 threes, 2000 twos over 3 s.
	if lat.N != 6000 || lat.P50 != 2 || rate != 2000 {
		t.Errorf("calmSummary = n %d p50 %v rate %v; want 6000, 2, 2000", lat.N, lat.P50, rate)
	}
	for i, want := range []bool{false, true, true, false, true} {
		if s[i].Calm != want {
			t.Errorf("slice %d counted = %v, want %v", i, s[i].Calm, want)
		}
	}
	// A calm run counts every slice.
	s = []slice{mk(0, 1, 10), mk(0.005, 2, 10), mk(0.01, 3, 10)}
	if lat, _ := calmSummary(s); lat.N != 30 {
		t.Errorf("calm run pooled %d samples, want all 30", lat.N)
	}
	// One calm slice of 500 samples: the next-calmest joins it, no more.
	s = []slice{mk(0.10, 3, 700), mk(0, 1, 500), mk(0.05, 2, 600)}
	if lat, _ := calmSummary(s); lat.N != 1100 || s[0].Calm || !s[1].Calm || !s[2].Calm {
		t.Errorf("short calm pool: pooled %d samples, counted %v %v %v; want 1100 from the two calmest",
			lat.N, s[0].Calm, s[1].Calm, s[2].Calm)
	}
}
