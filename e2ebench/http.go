package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	lattolclient "lattol/internal/client"
	"lattol/internal/cluster"
)

// setupRuns is how many times a run sets its system up from nothing; the
// median is setup_s and the last instance is measured.
const setupRuns = 5

// nproc bounds the load generator: at most this many requests in flight,
// hence connections in use, at once.
func nproc() int { return runtime.NumCPU() }

// newClients builds one lattolclient per node URL with retries and hedging
// off, so every refusal is counted rather than retried away.
func newClients(urls []string) []*lattolclient.Client {
	cs := make([]*lattolclient.Client, len(urls))
	for i, u := range urls {
		hc := &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: nproc(),
			MaxConnsPerHost:     nproc(),
		}}
		cs[i] = lattolclient.New(u, lattolclient.Options{HTTPClient: hc, Retries: -1, Seed: 1})
	}
	return cs
}

func urlsOf(ds []*daemon) []string {
	urls := make([]string, len(ds))
	for i, d := range ds {
		urls[i] = d.url
	}
	return urls
}

// metricsDelta is after-minus-before of the summed /metrics of every node.
type metricsDelta map[string]float64

func scrapeAll(ctx context.Context, ds []*daemon) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, d := range ds {
		m, err := d.scrape(ctx)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

func delta(before, after map[string]float64) metricsDelta {
	d := metricsDelta{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// character reports the /metrics deltas that show what a phase exercised.
func (d metricsDelta) character() map[string]float64 {
	out := map[string]float64{}
	for k, v := range d {
		for _, p := range []string{
			"lattold_requests_total", "lattold_cache_hits_total", "lattold_cache_coalesced_total",
			"lattold_cache_misses_total", "lattold_surrogate_hits_total", "lattold_surrogate_fallbacks_total",
			"lattold_peer_requests_total", "lattold_solves_total", "lattold_solve_errors_total",
			"lattold_shed_total", "lattold_solve_iterations", "lattold_queue_wait_seconds_sum",
			"lattold_queue_wait_seconds_count", "lattold_batch_items_total", "lattold_plans_total",
			"lattold_responses_total",
		} {
			if strings.HasPrefix(k, p) && !strings.Contains(k, "healthz") && !strings.Contains(k, "metrics\"") {
				out[k] = v
			}
		}
	}
	return out
}

// apiRequests is the number of POST requests the nodes received from outside
// the cluster: every endpoint's request counter minus forwards arriving from
// peers.
func (d metricsDelta) apiRequests() int {
	n := 0.0
	for _, ep := range []string{"solve", "tolerance", "sweep", "batch", "plan"} {
		n += d[fmt.Sprintf("lattold_requests_total{endpoint=%q}", ep)]
	}
	return int(n - d[`lattold_peer_requests_total{outcome="received"}`])
}

// system is a running set of lattold nodes plus the generator's clients.
type system struct {
	nodes   []*daemon
	clients []*lattolclient.Client
}

func (s *system) close() {
	stopAll(s.nodes)
}

// bootSystems sets the system up setupRuns times from nothing — fresh
// processes, fresh stores — timing each from spawn to healthy and prewarmed,
// and keeps the last one running.
func bootSystems(o options, nodes int, prewarm func(*system) error) (*system, []float64, error) {
	var times []float64
	var sys *system
	for i := 0; i < setupRuns; i++ {
		if sys != nil {
			sys.close()
		}
		store := filepath.Join(o.work, "run", fmt.Sprintf("%d-%d", os.Getpid(), i))
		if err := os.RemoveAll(store); err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		ds, err := startCluster(o.lattold, nodes, store)
		if err != nil {
			return nil, nil, err
		}
		sys = &system{nodes: ds, clients: newClients(urlsOf(ds))}
		if prewarm != nil {
			if err := prewarm(sys); err != nil {
				sys.close()
				return nil, nil, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return sys, times, nil
}

// removeStores deletes the run's artifact stores.
func removeStores(o options) {
	matches, _ := filepath.Glob(filepath.Join(o.work, "run", fmt.Sprintf("%d-*", os.Getpid())))
	for _, m := range matches {
		_ = os.RemoveAll(m)
	}
}

// recorder keeps the raw responses a phase samples for checking.
type recorder struct {
	mu   sync.Mutex
	resp map[int]*lattolclient.RawResponse
}

func (r *recorder) keep(i int, res *lattolclient.RawResponse) {
	r.mu.Lock()
	if r.resp == nil {
		r.resp = map[int]*lattolclient.RawResponse{}
	}
	r.resp[i] = res
	r.mu.Unlock()
}

// sender returns a sendFunc posting reqs[i] through clients[entry(i)],
// keeping every response for which sample(i) holds.
func sender(clients []*lattolclient.Client, reqs []request, entry func(i int) int, sample func(i int) bool, rec *recorder) sendFunc {
	return func(ctx context.Context, i int) bool {
		ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		res, err := clients[entry(i)].PostRaw(ctx, reqs[i].path, reqs[i].body, nil)
		if err != nil {
			return false
		}
		if sample(i) {
			rec.keep(i, res)
		}
		return res.Status == http.StatusOK
	}
}

// openSpec adapts the open-loop flow to one workload.
type openSpec struct {
	name    string
	nodes   int
	rate    float64 // fixed offered rate
	satRate float64 // upper bound on capacity: sizes the closed-loop request supply
	limitMs float64 // p99 limit of the max-rate search
	prewarm func(*system) error
	// requests returns n requests of phase `phase`, with Poisson due times
	// at rate (closed-loop phases ignore them).
	requests func(phase int, rate float64, dur time.Duration) schedule
	// entry picks the node a request enters through.
	entry func(req request) int
	// sample selects the responses the checker verifies.
	sample func(i int) bool
	// check verifies one sampled response of a phase.
	check func(phase int, req request, res *lattolclient.RawResponse) error
	// character checks a phase's /metrics deltas against its design.
	character func(rep *report, phase string, d metricsDelta, attempted int)
}

// openSlices is how many stretches the closed loop of hot and cold is
// measured in. Their requests take a fraction of a millisecond, so a
// half-second slice holds enough for a p99, and short slices let the calm
// ones be found inside a run whose steal comes in bursts.
const openSlices = 16

// maxRateLevels are the offered rates of the max-rate trials as shares of
// the closed-loop capacity so far, in the order they run, one after each
// closed-loop slice but the first. The open loop keeps at most nproc
// requests in flight, as the closed loop does, so its capacity is about the
// same: the levels bracket the rate where its p99 turns up or its backlog
// starts to grow, and each level recurs through the run.
var maxRateLevels = []float64{0.9, 1.0, 0.8, 1.1, 0.9, 1.0, 0.8, 1.1, 0.9, 1.0, 0.8, 1.1, 0.9, 1.0, 0.8}

// maxLagMs is the generator lag p99 at the fixed rate beyond which a run
// is invalid: the generator, not the system, would be setting the
// latencies.
const maxLagMs = 12.5

// Phase ids: the seed streams of the phases of one run.
const (
	phaseWarm = iota
	phaseFixed
	phaseSat0
	phaseTrial0 = phaseSat0 + openSlices
)

// runOpenWorkload is the measured run of an open-loop HTTP workload:
//
//  1. set up setupRuns times (setup_s), keep the last system;
//  2. warm up at the fixed rate (not reported);
//  3. the fixed-rate open-loop phase: the answers and /metrics checks at the
//     workload's design rate, its open-loop latency (reported in the result
//     file) and the generator's lag, which decides whether the run is valid;
//  4. a closed loop of nproc callers, in openSlices slices of which the
//     ones the hypervisor stole little from are pooled (runSlices):
//     lat_p50_ms, lat_p99_ms, ops_per_s; after each slice but the first,
//  5. a short open-loop trial at a fixed share of that capacity
//     (maxRateLevels), the trials pooled per share: max_rate_rps;
//
// then checks the sampled answers and each phase's /metrics deltas.
// cpu_us_per_op covers phases 3–5; peak_rss_mb is the median over those
// phases of the nodes' peak resident set in each, so that one phase in
// which a node's collector fell behind does not set it.
//
// The end-to-end latencies come from the closed loop because on a shared
// host an open loop charges every scheduler stall to all the requests that
// arrive during it, so its tail measures the host more than the program;
// the open-loop numbers stay in the result file and decide max_rate_rps.
func runOpenWorkload(ctx context.Context, o options, sp openSpec) (*report, error) {
	rep := newReport()
	sys, setups, err := bootSystems(o, sp.nodes, sp.prewarm)
	defer removeStores(o)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	rep.timing("setup_s", median(setups), "s", len(setups))
	rep.details["setup_s_runs"] = setups

	S := time.Duration(o.seconds * float64(time.Second))
	workers := nproc()
	recs := map[int]*recorder{}
	scheds := map[int]schedule{}
	phases := map[string]any{}
	completed := 0      // over the measured phases
	var peaks []float64 // summed VmHWM of each measured phase, MB

	// run drives one phase: open loop at rate when callers is 0, else a
	// closed loop of that many callers.
	run := func(phase int, label string, callers int, rate float64, dur time.Duration) (phaseResult, error) {
		closed := callers > 0
		supply := rate
		if closed {
			supply = sp.satRate
		}
		sched := sp.requests(phase, supply, dur)
		scheds[phase] = sched
		rec := &recorder{}
		recs[phase] = rec
		send := sender(sys.clients, sched.req, func(i int) int { return sp.entry(sched.req[i]) }, sp.sample, rec)
		before, err := scrapeAll(ctx, sys.nodes)
		if err != nil {
			return phaseResult{}, err
		}
		var res phaseResult
		if closed {
			res = runClosed(ctx, callers, dur, len(sched.req), send)
			if res.attempted >= len(sched.req) && res.elapsed < dur*9/10 {
				return res, invalidf("%s %s: ran out of requests after %v", sp.name, label, res.elapsed)
			}
		} else {
			res = runOpen(ctx, sched.due, workers, send)
		}
		after, err := scrapeAll(ctx, sys.nodes)
		if err != nil {
			return phaseResult{}, err
		}
		if err := ctx.Err(); err != nil {
			return phaseResult{}, err
		}
		peak, err := takePeakRSS(sys.nodes)
		if err != nil {
			return phaseResult{}, err
		}
		if phase != phaseWarm {
			peaks = append(peaks, peak)
		}
		d := delta(before, after)
		if got := d.apiRequests(); got != res.attempted {
			rep.fail("%s %s: daemons counted %d requests, generator attempted %d", sp.name, label, got, res.attempted)
		}
		sp.character(rep, label, d, res.attempted)
		sum, _ := summarize(res.lat)
		lagSorted := append([]float64(nil), res.lag...)
		sort.Float64s(lagSorted)
		phases[label] = map[string]any{
			"offered_rps": rate, "closed_loop_callers": callers, "attempted": res.attempted, "failed": res.failed,
			"completed_rps": res.rate(), "latency": sum, "backlog_grows": res.grows, "peak_rss_mb": peak,
			"gen_lag_p99_ms": quantile(lagSorted, 0.99), "gen_lag_p50_ms": quantile(lagSorted, 0.5), "metrics_delta": d.character(),
		}
		rep.attempted += res.attempted
		rep.failed += res.failed
		completed += res.attempted - res.failed
		return res, nil
	}

	warm := max(S/20, 300*time.Millisecond)
	if _, err := run(phaseWarm, "warmup", 0, sp.rate, warm); err != nil {
		return nil, err
	}
	// The warm-up is not part of the result.
	rep.attempted, rep.failed, completed = 0, 0, 0
	cpu0, err := clusterStat(sys.nodes)
	if err != nil {
		return nil, err
	}
	host0 := readHostCPU()
	fixed, err := run(phaseFixed, "fixed", 0, sp.rate, S*10/100)
	if err != nil {
		return nil, err
	}
	lagSorted := append([]float64(nil), fixed.lag...)
	sort.Float64s(lagSorted)
	lagP99 := quantile(lagSorted, 0.99)
	if fixed.grows {
		return nil, invalidf("%s: backlog grew at the fixed rate %.0f/s", sp.name, sp.rate)
	}
	if lagP99 > maxLagMs {
		return nil, invalidf("%s: generator ran %.3f ms late at p99 (at most %g ms)", sp.name, lagP99, maxLagMs)
	}

	// The closed-loop slices and the max-rate trials alternate, a trial
	// after each slice from the second on, so both sample the whole run. A
	// trial's rate is its share of the calm capacity of the slices so far.
	fixedLat, _ := summarize(fixed.lat)
	search := &maxRateSearch{LimitMs: sp.limitMs, Floor: sp.rate, FloorP99: fixedLat.P99}
	nTrial := 0
	slices, lat, capacity, err := runSlices(sp.name, openSlices, func(j int) (phaseResult, error) {
		return run(phaseSat0+j, phaseLabel(phaseSat0+j), workers, 0, S*40/100/openSlices)
	}, func(done []slice) error {
		if len(done) < 2 {
			return nil
		}
		_, soFar := calmSummary(done)
		steals := make([]float64, len(done))
		for i, sl := range done {
			steals[i] = sl.Steal
		}
		typical := median(steals)
		k := len(search.Trials)
		rate := maxRateLevels[k] * soFar
		h0 := readHostCPU()
		res, err := run(phaseTrial0+k, phaseLabel(phaseTrial0+k), 0, rate, S*45/100/time.Duration(len(maxRateLevels)))
		if err != nil {
			return err
		}
		steal := stealShare(h0, readHostCPU())
		search.Trials = append(search.Trials, newTrial(maxRateLevels[k], rate, res, steal, steal > typical+trialStealSlack))
		nTrial += len(res.lat)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.timing("lat_p50_ms", lat.P50, "ms", lat.N)
	rep.timing("lat_p99_ms", lat.P99, "ms", lat.N)
	rep.timing("ops_per_s", capacity, "1/s", lat.N)
	rep.details["closed_loop_slices"] = slices

	rep.timing("max_rate_rps", search.estimate(), "1/s", nTrial)
	rep.details["max_rate_search"] = search

	cpu1, err := clusterStat(sys.nodes)
	if err != nil {
		return nil, err
	}
	rep.details["host_steal_share"] = stealShare(host0, readHostCPU())
	rep.timing("cpu_us_per_op", float64(cpu1.cpu-cpu0.cpu)/float64(time.Microsecond)/float64(max(completed, 1)), "us", completed)
	rep.timing("peak_rss_mb", median(peaks), "MB", len(peaks))
	rep.details["phases"] = phases
	rep.details["gen_lag_p99_ms"] = lagP99

	// Correctness of every sampled answer, checked after the load so the
	// reference solves never compete with the system under test.
	checked := 0
	for ph, rec := range recs {
		if ph == phaseWarm {
			continue
		}
		for i, res := range rec.resp {
			if res.Status != http.StatusOK {
				continue // already counted as failed
			}
			checked++
			rep.judge(fmt.Sprintf("%s phase %s request %d", sp.name, phaseLabel(ph), i), sp.check(ph, scheds[ph].req[i], res))
		}
	}
	rep.details["answers_checked"] = checked
	return rep, nil
}

func phaseLabel(ph int) string {
	switch {
	case ph == phaseWarm:
		return "warmup"
	case ph == phaseFixed:
		return "fixed"
	case ph < phaseTrial0:
		return fmt.Sprintf("closed%d", ph-phaseSat0)
	}
	return fmt.Sprintf("trial%d", ph-phaseTrial0)
}

// nonOwners returns, per key hash, the index of a node that does not own it
// on the system's ring — the entry the hot workload sends it through.
func nonOwners(sys *system, hashes []uint64) []int {
	urls := urlsOf(sys.nodes)
	ring := cluster.NewRing(urls, cluster.DefaultVirtualNodes)
	out := make([]int, len(hashes))
	for j, h := range hashes {
		owner := ring.Owner(h)
		for i, u := range urls {
			if u != owner {
				out[j] = i
				break
			}
		}
	}
	return out
}
