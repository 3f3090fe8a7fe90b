package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"lattol/internal/surrogate"
)

// digest flattens a schedule into bytes: every due time and body, in order.
func digest(s schedule) []byte {
	var b bytes.Buffer
	for i := range s.req {
		fmt.Fprintf(&b, "%d %s %s\n", s.due[i], s.req[i].path, s.req[i].body)
	}
	return b.Bytes()
}

// TestSameSeedSameRequests: a seed fixes every request byte — the Poisson
// schedule, the zipf key draw, the fresh-point scatter, the plan-batch and
// replicate operations — and another seed changes them.
func TestSameSeedSameRequests(t *testing.T) {
	grid, err := surrogate.Build(surrogate.DefaultSpec(), surrogate.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gen := func(seed int64) [][]byte {
		set, err := newHotSet(seed, grid)
		if err != nil {
			t.Fatal(err)
		}
		cold, _ := coldSchedule(seed, phaseFixed, 0, coldRate, 500*time.Millisecond)
		out := [][]byte{
			digest(hotSchedule(seed, phaseFixed, hotRate, 500*time.Millisecond, set)),
			digest(cold),
		}
		for i := 0; i < 6; i++ {
			op, err := planBatchOp(seed, i)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, op.req.body)
			out = append(out, []byte(fmt.Sprintf("%+v", replicateQuery(seed, i))))
		}
		return out
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed produced different requests")
	}
	for i := range a {
		if bytes.Equal(a[i], c[i]) {
			t.Errorf("stream %d is the same under seeds 7 and 8", i)
		}
	}
}

// TestHotSetDesign: the hot set's keys are distinct, its max_error keys are
// off-lattice surrogate hits, and the schedule's arrival rate is as set.
func TestHotSetDesign(t *testing.T) {
	grid, err := surrogate.Build(surrogate.DefaultSpec(), surrogate.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	set, err := newHotSet(3, grid)
	if err != nil {
		t.Fatal(err)
	}
	surr := 0
	for _, hc := range set {
		if !hc.maxErr {
			continue
		}
		surr++
		q := surrogate.Query{K: hc.cfg.K, NT: hc.cfg.Threads, R: hc.cfg.Runlength, PRemote: hc.cfg.PRemote, Psw: hc.cfg.Psw}
		if _, _, st := grid.Lookup(q, hotMaxError); st != surrogate.Hit || onLattice(grid.Spec(), q) {
			t.Fatalf("max_error key %+v is not an off-lattice surrogate hit", q)
		}
	}
	if surr != hotConfigs/3 {
		t.Errorf("%d max_error keys, want %d", surr, hotConfigs/3)
	}
	s := hotSchedule(3, phaseFixed, hotRate, 4*time.Second, set)
	if got := float64(len(s.due)) / 4; got < 0.95*hotRate || got > 1.05*hotRate {
		t.Errorf("schedule rate %.0f/s, want about %.0f/s", got, hotRate)
	}
}

// TestColdPointsAreFresh: no two cold requests share an operating point,
// within a phase or across phases, over more points than a run sends.
func TestColdPointsAreFresh(t *testing.T) {
	cfgs := map[coldOp]int{}
	for i := 0; i < 300000; i++ {
		op := freshOp(rngFor(5, streamCold, i), 24)
		if j, dup := cfgs[op]; dup {
			t.Fatalf("fresh points %d and %d are equal: %+v", j, i, op.cfg)
		}
		cfgs[op] = i
	}
	seen := map[string]bool{}
	first := 0
	for phase := 0; phase < 3; phase++ {
		s, _ := coldSchedule(5, phase, first, coldRate, time.Second)
		first += len(s.req)
		for _, r := range s.req {
			if seen[string(r.body)] {
				t.Fatalf("repeated cold request %s", r.body)
			}
			seen[string(r.body)] = true
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the code: the
// per-layer metrics and units, and the rates and limits each why line states.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run reports %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if bj.PerLayer[i].Name != m.name || bj.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %v, code reports %s [%s]", i, bj.PerLayer[i], m.name, m.unit)
		}
	}
	want := map[string][]string{
		"hot":        {fmt.Sprintf("%g/s", hotRate), fmt.Sprintf("p99 limit %g ms", hotLimitMs), fmt.Sprintf("over %d", hotConfigs)},
		"cold":       {fmt.Sprintf("%g/s", coldRate), fmt.Sprintf("p99 limit %g ms", coldLimitMs)},
		"plan-batch": {fmt.Sprintf("(%d items)", batchItems), fmt.Sprintf("(%d steps)", sweepSteps)},
		"replicate":  {fmt.Sprintf("%g%% precision", 100*repPrecision)},
	}
	for _, w := range bj.Workloads {
		for _, s := range want[w.Name] {
			if !strings.Contains(w.Why, s) {
				t.Errorf("%s: why line %q does not state %q", w.Name, w.Why, s)
			}
		}
	}
}
