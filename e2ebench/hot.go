package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	lattolclient "lattol/internal/client"
	"lattol/internal/mms"
	"lattol/internal/surrogate"
)

// wireFields lists the nine measures of a metrics body — the fields a
// surrogate bound certifies and the golden checks compare.
func wireFields(m lattolclient.MetricsBody) [9]float64 {
	return [9]float64{m.Up, m.LambdaProc, m.LambdaNet, m.SObs, m.LObs,
		m.CycleTime, m.MemUtilization, m.OutUtilization, m.InUtilization}
}

func metricFields(m mms.Metrics) [9]float64 {
	return [9]float64{m.Up, m.LambdaProc, m.LambdaNet, m.SObs, m.LObs,
		m.CycleTime, m.MemUtilization, m.OutUtilization, m.InUtilization}
}

// goldenTol is the agreement demanded between a served exact answer and an
// independent in-process solve (the conformance corpus's band).
const goldenTol = 1e-9

// surrogateSlack absorbs float64 noise when an interpolated answer is held
// to its certified bound (the conformance suite's slack).
const surrogateSlack = 1e-8

// matchExact compares a served metrics body to a reference solve.
func matchExact(got lattolclient.MetricsBody, want mms.Metrics) error {
	g, w := wireFields(got), metricFields(want)
	for i := range g {
		if e := relErr(g[i], w[i]); !(e <= goldenTol) {
			return fmt.Errorf("field %d: served %.17g, solved %.17g (rel err %.3g)", i, g[i], w[i], e)
		}
	}
	return nil
}

// matchBound holds an interpolated answer to its certified relative bound.
func matchBound(got lattolclient.MetricsBody, bound float64, want mms.Metrics) error {
	g, w := wireFields(got), metricFields(want)
	for i := range g {
		if e := relErr(g[i], w[i]); !(e <= bound*(1+surrogateSlack)+surrogateSlack) {
			return fmt.Errorf("field %d: interpolated %.17g, solved %.17g: rel err %.3g exceeds bound %.3g", i, g[i], w[i], e, bound)
		}
	}
	return nil
}

// exactSolve is the independent reference: a fresh model solved with the
// default options.
func exactSolve(cfg mms.Config) (mms.Metrics, error) {
	m, err := mms.Build(cfg)
	if err != nil {
		return mms.Metrics{}, err
	}
	return m.Solve(mms.SolveOptions{})
}

// hotState is what the hot workload shares between set-up, load and checks.
type hotState struct {
	set   []hotConfig
	entry []int // per key: the node that does not own it
}

func newHotState(seed int64) (*hotState, *surrogate.Grid, error) {
	grid, err := surrogate.Build(surrogate.DefaultSpec(), surrogate.BuildOptions{})
	if err != nil {
		return nil, nil, err
	}
	set, err := newHotSet(seed, grid)
	if err != nil {
		return nil, nil, err
	}
	for i := range set {
		if set[i].want, err = exactSolve(set[i].cfg); err != nil {
			return nil, nil, fmt.Errorf("hot: reference for key %d: %w", i, err)
		}
	}
	return &hotState{set: set}, grid, nil
}

// prewarm routes the ring and sends every key once through its non-owner,
// so exact keys sit in their owner's LRU before measurement.
func (h *hotState) prewarm(sys *system) error {
	hashes := make([]uint64, len(h.set))
	for i := range h.set {
		hashes[i] = h.set[i].hash
	}
	h.entry = nonOwners(sys, hashes)
	var next atomic.Int64
	errs := make(chan error, nproc())
	var wg sync.WaitGroup
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(h.set) {
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				res, err := sys.clients[h.entry[j]].PostRaw(ctx, "/v1/solve", h.set[j].body, nil)
				cancel()
				if err == nil && res.Status != http.StatusOK {
					err = fmt.Errorf("HTTP %d: %s", res.Status, res.Body)
				}
				if err != nil {
					errs <- fmt.Errorf("hot prewarm key %d: %w", j, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// check verifies one hot answer: exact keys must be LRU hits equal to the
// reference at the golden tolerance; max_error keys must be surrogate
// answers within their returned bound.
func (h *hotState) check(req request, res *lattolclient.RawResponse) error {
	var body lattolclient.SolveResponse
	if err := json.Unmarshal(res.Body, &body); err != nil {
		return err
	}
	hc := &h.set[req.ref]
	tier := res.Header.Get("X-Lattold-Cache")
	if !hc.maxErr {
		if tier != "hit" {
			return fmt.Errorf("exact key served from tier %q, want hit", tier)
		}
		return matchExact(body.Metrics, hc.want)
	}
	if tier != "surrogate" {
		return fmt.Errorf("max_error key served from tier %q, want surrogate", tier)
	}
	if !(body.ErrorBound >= 0 && body.ErrorBound <= hotMaxError) {
		return fmt.Errorf("error_bound %g outside [0, %g]", body.ErrorBound, hotMaxError)
	}
	return matchBound(body.Metrics, body.ErrorBound, hc.want)
}

// hotSample is the share of hot answers checked (every hotSample-th); the
// rest are not kept, which keeps the generator's heap small.
const hotSample = 4

// runHot measures the cache-hit path of a 2-node ring; see README.md.
func runHot(ctx context.Context, o options) (*report, error) {
	h, _, err := newHotState(o.seed)
	if err != nil {
		return nil, err
	}
	return runOpenWorkload(ctx, o, openSpec{
		name:    "hot",
		nodes:   2,
		rate:    hotRate,
		satRate: 40000,
		limitMs: hotLimitMs,
		prewarm: h.prewarm,
		requests: func(phase int, rate float64, dur time.Duration) schedule {
			return hotSchedule(o.seed, phase, rate, dur, h.set)
		},
		entry:  func(req request) int { return h.entry[req.ref] },
		sample: func(i int) bool { return i%hotSample == 0 },
		check:  func(_ int, req request, res *lattolclient.RawResponse) error { return h.check(req, res) },
		character: func(rep *report, phase string, d metricsDelta, attempted int) {
			fwd := d[`lattold_peer_requests_total{outcome="forwarded"}`]
			if int(fwd) != attempted {
				rep.fail("hot %s: %v of %d requests forwarded, want all", phase, fwd, attempted)
			}
			served := d["lattold_cache_hits_total"] + d["lattold_cache_coalesced_total"] + d["lattold_surrogate_hits_total"]
			if int(served) != attempted {
				rep.fail("hot %s: LRU+surrogate answered %v of %d requests, want all", phase, served, attempted)
			}
		},
	})
}
