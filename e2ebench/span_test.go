package main

import (
	"math"
	"testing"
)

// TestBudgetSelfTimes builds a span tree by hand: one request whose root
// encloses a handler span (nested in time) and whose layers below the
// handler were replayed after the root ended, plus a second request whose
// replayed child ran longer than its parent.
func TestBudgetSelfTimes(t *testing.T) {
	spans := []span{
		// Request 1: rtt 0..100 encloses handler 20..80.
		{Layer: "serve.handler", Parent: "client.rtt", Req: 1, Start: 20, End: 80},
		{Layer: "client.rtt", Parent: "", Req: 1, Start: 0, End: 100},
		// Replayed after the root: key 5, evaluator 30 with a lookup of 10.
		{Layer: "serve.key", Parent: "serve.handler", Req: 1, Start: 110, End: 115},
		{Layer: "serve.evaluator", Parent: "serve.handler", Req: 1, Start: 120, End: 150},
		{Layer: "surrogate.lookup", Parent: "serve.evaluator", Req: 1, Start: 160, End: 170},
		// Request 2: rtt 1000..1050 encloses handler 1010..1040, whose
		// replayed evaluator took 40 > 30.
		{Layer: "serve.handler", Parent: "client.rtt", Req: 2, Start: 1010, End: 1040},
		{Layer: "client.rtt", Parent: "", Req: 2, Start: 1000, End: 1050},
		{Layer: "serve.evaluator", Parent: "serve.handler", Req: 2, Start: 1100, End: 1140},
	}
	b := budgetOf(spans)
	if b.Ops != 2 {
		t.Fatalf("ops = %d, want 2", b.Ops)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if !near(b.OpUs, 0.075) { // (100+50)/2 ns
		t.Errorf("op = %v µs, want 0.075", b.OpUs)
	}
	// Self per span, in ns: rtt 40 and 20; handler 60-35=25 and max(30-40,0)=0;
	// key 5; evaluator 30-10=20 and 40; lookup 10.
	want := map[string]struct {
		n         int
		selfTotal float64
	}{
		"client.rtt":       {2, 60},
		"serve.handler":    {2, 25},
		"serve.key":        {1, 5},
		"serve.evaluator":  {2, 60},
		"surrogate.lookup": {1, 10},
	}
	sum := 0.0
	for layer, w := range want {
		l := b.layer(layer)
		if l.Spans != w.n {
			t.Errorf("%s: %d spans, want %d", layer, l.Spans, w.n)
		}
		if !near(l.PerOpUs, w.selfTotal/2/1e3) {
			t.Errorf("%s: self per op %v µs, want %v", layer, l.PerOpUs, w.selfTotal/2/1e3)
		}
		sum += l.PerOpUs
	}
	// 160 ns of self over 2 ops against 150 ns of root: the 10 ns the
	// replayed evaluator overran its handler by is the (negative) remainder.
	if !near(b.UnaccountedUs, -0.005) || !near(sum+b.UnaccountedUs, b.OpUs) {
		t.Errorf("unaccounted = %v µs, want -0.005 (layers %v + unaccounted = op %v)", b.UnaccountedUs, sum, b.OpUs)
	}
	if !near(b.OvershootUs, 0.005) {
		t.Errorf("replay overshoot = %v µs, want 0.005", b.OvershootUs)
	}
}

// TestBudgetParentIsLatestEarlier: two calls of the same layer in one
// request each own the replayed child that follows them.
func TestBudgetParentIsLatestEarlier(t *testing.T) {
	spans := []span{
		{Layer: "replicate.evaluate", Req: 7, Start: 0, End: 100},
		{Layer: "replicate.run", Parent: "replicate.evaluate", Req: 7, Start: 200, End: 240},
		{Layer: "des.replication", Parent: "replicate.run", Req: 7, Start: 250, End: 260},
		{Layer: "replicate.run", Parent: "replicate.evaluate", Req: 7, Start: 300, End: 330},
		{Layer: "des.replication", Parent: "replicate.run", Req: 7, Start: 340, End: 345},
	}
	b := budgetOf(spans)
	// run selves: 40-10 and 30-5 = 55; evaluate: 100-70 = 30.
	if got := b.layer("replicate.run").PerOpUs; math.Abs(got-0.055) > 1e-12 {
		t.Errorf("replicate.run self = %v µs, want 0.055", got)
	}
	if got := b.layer("replicate.evaluate").PerOpUs; math.Abs(got-0.030) > 1e-12 {
		t.Errorf("replicate.evaluate self = %v µs, want 0.030", got)
	}
	if math.Abs(b.UnaccountedUs) > 1e-12 || b.OvershootUs != 0 {
		t.Errorf("unaccounted = %v, overshoot = %v, want both 0", b.UnaccountedUs, b.OvershootUs)
	}
}
