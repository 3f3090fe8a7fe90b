package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	lattolclient "lattol/internal/client"
	"lattol/internal/cluster"
	"lattol/internal/mms"
	"lattol/internal/mva"
	"lattol/internal/replicate"
	"lattol/internal/serve"
	"lattol/internal/simmms"
	"lattol/internal/surrogate"
	"lattol/internal/sweep"
	"lattol/internal/tolerance"
)

// The traced run replays each workload's seeded requests against lattold's
// serving stack assembled in this process — the same serve.Server,
// cluster.Cluster and lattolclient code the daemon runs, over real loopback
// sockets — and records a span around every call into a layer's public
// entry point. Spans inside internal/ do not exist yet; the layers below a
// handler are timed by replaying the request's calls into them right after
// the request itself (README.md, "Traced runs").
//
// Layer names, with the layer that calls them:
//
//	client.rtt           lattolclient PostRaw round trip (root)
//	serve.handler.entry  entry node's Server.Handler().ServeHTTP (client.rtt)
//	cluster.route        cluster.Ring.Owner (serve.handler.entry)
//	cluster.forward      Cluster.Forward transport (serve.handler.entry)
//	serve.handler        owner's / single node's ServeHTTP (cluster.forward or client.rtt)
//	serve.key            serve.SolveKey / ToleranceKey (either handler)
//	serve.evaluator      Evaluator.SolveBounded/Tolerance/Batch/Sweep/Plan (serve.handler)
//	surrogate.lookup     surrogate.Grid.Lookup (serve.evaluator)
//	mms.build            mms.Build (serve.evaluator)
//	mva.solve            Model.Solve (serve.evaluator)
//	mms.solve_batch      mms.SolveBatch (serve.evaluator)
//	replicate.evaluate   replicate.Evaluator.Evaluate (root)
//	replicate.run        replicate.Run (replicate.evaluate)
//	des.replication      one simmms replication (replicate.run)

// inproc is a running in-process lattold stack: n serve.Servers on loopback
// listeners, ringed when n > 1, with traced handlers and forward transports.
type inproc struct {
	srvs    []*serve.Server
	https   []*http.Server
	urls    []string
	clients []*lattolclient.Client
	ring    *cluster.Ring
}

// tracedTransport times the cluster's peer forwards.
type tracedTransport struct {
	inner cluster.Transport
	tr    *tracer
}

func (t tracedTransport) PostRaw(ctx context.Context, path string, body []byte, hdr http.Header) (*lattolclient.RawResponse, error) {
	defer t.tr.begin("cluster.forward", "serve.handler.entry")()
	return t.inner.PostRaw(ctx, path, body, hdr)
}

// tracedHandler times a node's ServeHTTP under the layer it plays for the
// request: the entry of a ring, or the node that answers.
func tracedHandler(h http.Handler, tr *tracer, ringed bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		layer, parent := "serve.handler", "client.rtt"
		switch {
		case r.Header.Get(cluster.ForwardHeader) != "":
			parent = "cluster.forward"
		case ringed:
			layer = "serve.handler.entry"
		}
		defer tr.begin(layer, parent)()
		h.ServeHTTP(w, r)
	})
}

func startInproc(n int, grid *surrogate.Grid, tr *tracer) (*inproc, error) {
	p := &inproc{}
	var ls []net.Listener
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range ls {
				l.Close()
			}
			return nil, err
		}
		ls = append(ls, l)
		p.urls = append(p.urls, "http://"+l.Addr().String())
	}
	for i := 0; i < n; i++ {
		srv := serve.NewServer(serve.Config{})
		if grid != nil {
			srv.Evaluator().SetSurrogate(grid)
		}
		if n > 1 {
			self := p.urls[i]
			cl, err := cluster.New(self, p.urls, cluster.Options{NewTransport: func(peer string) cluster.Transport {
				return tracedTransport{lattolclient.New(peer, lattolclient.Options{Retries: -1, ClientID: "peer:" + self}), tr}
			}})
			if err != nil {
				return nil, err
			}
			srv.SetCluster(cl)
			p.ring = cl.Ring()
		}
		hs := &http.Server{Handler: tracedHandler(srv.Handler(), tr, n > 1), ReadHeaderTimeout: 5 * time.Second}
		go func(l net.Listener) { _ = hs.Serve(l) }(ls[i])
		p.srvs = append(p.srvs, srv)
		p.https = append(p.https, hs)
	}
	p.clients = newClients(p.urls)
	return p, nil
}

func (p *inproc) close() {
	for i, hs := range p.https {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = hs.Shutdown(ctx)
		cancel()
		p.srvs[i].Close()
	}
}

// metrics sums the nodes' /metrics exposition.
func (p *inproc) metrics() map[string]float64 {
	sum := map[string]float64{}
	for _, s := range p.srvs {
		var buf bytes.Buffer
		s.Evaluator().Metrics().WriteText(&buf)
		m, _ := parseMetrics(&buf)
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum
}

// system presents the in-process stack as the daemon-driving code expects
// it: node URLs and the generator's clients.
func (p *inproc) system() *system {
	ds := make([]*daemon, len(p.urls))
	for i, u := range p.urls {
		ds[i] = &daemon{url: u}
	}
	return &system{nodes: ds, clients: p.clients}
}

// Seed streams of the traced run's phases, apart from the measured run's.
const (
	phaseTraceLoad = 100 + iota
	phaseTraceReplay
)

// traceRun is the state shared by a workload's traced phases.
type traceRun struct {
	o        options
	rep      *report
	tr       *tracer
	untraced []float64 // µs, root durations of untraced replayed operations
}

// verify records the outcome of one of the traced run's own checks.
func (t *traceRun) verify(what string, err error) {
	t.rep.judge(fmt.Sprintf("%s traced %s", t.o.workload, what), err)
}

// perLayer lists every per-layer metric with its unit, so a run reports
// each one — zero for a layer the workload does not reach.
var perLayer = []struct{ name, unit string }{
	{"client.rtt_us", "us"}, {"net.self_us", "us"},
	{"serve.handler_self_us", "us"}, {"serve.resp_bytes", "bytes"},
	{"serve.key_ns", "ns"}, {"serve.cache_lookup_ns", "ns"}, {"serve.evaluator_self_us", "us"},
	{"serve.cache_hit_ratio", "ratio"}, {"serve.coalesced_ratio", "ratio"},
	{"surrogate.lookup_ns", "ns"}, {"surrogate.hit_ratio", "ratio"},
	{"cluster.route_ns", "ns"}, {"cluster.entry_self_us", "us"}, {"cluster.forward_self_us", "us"},
	{"cluster.forwards", "1/op"},
	{"serve.queue_wait_us", "us"}, {"serve.shed_ratio", "ratio"},
	{"mms.build_us", "us"}, {"mms.build_allocs", "count"},
	{"mva.solve_us", "us"}, {"mva.iterations", "count"}, {"mva.batch_us_per_point", "us"},
	{"inverse.probes_per_plan", "count"}, {"inverse.plan_ms", "ms"},
	{"replicate.reps_per_eval", "count"}, {"replicate.rep_ms", "ms"}, {"replicate.scaling", "ratio"},
	{"des.ns_per_access", "ns"}, {"des.accesses_per_rep", "count"},
	{"gen.lag_p99_ms", "ms"},
	{"trace.op_us", "us"}, {"trace.replay_overshoot_us", "us"}, {"trace.overhead_pct", "%"},
}

func runTraced(ctx context.Context, o options) (*report, error) {
	t := &traceRun{o: o, rep: newReport(), tr: newTracer()}
	var err error
	switch o.workload {
	case "hot":
		err = t.hot(ctx)
	case "cold":
		err = t.cold(ctx)
	case "plan-batch":
		err = t.planBatch(ctx)
	case "replicate":
		err = t.replicate(ctx)
	}
	if err != nil {
		return nil, err
	}
	return t.finish()
}

// finish derives the budget and fills every per-layer metric.
func (t *traceRun) finish() (*report, error) {
	b := budgetOf(t.tr.spans)
	rep := t.rep
	us := func(layer string) float64 { return b.layer(layer).MeanUs }
	self := func(layer string) float64 { return b.layer(layer).SelfUs }
	for _, m := range perLayer {
		if _, ok := rep.metrics[m.name]; !ok {
			rep.set(m.name, 0, m.unit)
		}
	}
	set := func(name string, v float64) { rep.metrics[name] = metric{v, rep.metrics[name].Unit} }
	set("client.rtt_us", us("client.rtt"))
	set("net.self_us", self("client.rtt"))
	set("serve.handler_self_us", self("serve.handler"))
	set("serve.key_ns", 1e3*us("serve.key"))
	set("serve.evaluator_self_us", self("serve.evaluator"))
	set("surrogate.lookup_ns", 1e3*us("surrogate.lookup"))
	set("cluster.route_ns", 1e3*us("cluster.route"))
	set("cluster.entry_self_us", self("serve.handler.entry"))
	set("cluster.forward_self_us", self("cluster.forward"))
	set("mms.build_us", us("mms.build"))
	set("mva.solve_us", us("mva.solve"))
	set("trace.op_us", b.OpUs)
	set("trace.replay_overshoot_us", b.OvershootUs)
	if len(t.untraced) > 0 && b.OpUs > 0 {
		set("trace.overhead_pct", 100*(b.OpUs/mean(t.untraced)-1))
	}
	rep.details["budget"] = b

	fmt.Printf("layer budget, %s: %d traced operations, %.2f µs each\n", t.o.workload, b.Ops, b.OpUs)
	fmt.Printf("  %-22s %8s %12s %12s %14s %7s\n", "layer", "spans", "mean µs", "self µs", "self/op µs", "share")
	for _, l := range b.Layers {
		fmt.Printf("  %-22s %8d %12.3f %12.3f %14.3f %6.1f%%\n", l.Layer, l.Spans, l.MeanUs, l.SelfUs, l.PerOpUs, 100*l.ShareOfOp)
	}
	fmt.Printf("  %-22s %8s %12s %12s %14.3f %6.1f%%  (= minus the replay overshoot)\n", "unaccounted", "", "", "", b.UnaccountedUs, 100*b.UnaccountedUs/b.OpUs)

	dir := filepath.Join(t.o.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	js, err := json.Marshal(t.tr.spans)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", t.o.workload, t.o.seed)), js, 0o644); err != nil {
		return nil, err
	}
	return rep, nil
}

// counters fills the per-layer ratios a phase's /metrics deltas give.
func (t *traceRun) counters(d metricsDelta, attempted int) {
	rep := t.rep
	lookups := d["lattold_cache_hits_total"] + d["lattold_cache_coalesced_total"] + d["lattold_cache_misses_total"]
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	rep.set("serve.cache_hit_ratio", ratio(d["lattold_cache_hits_total"], lookups), "ratio")
	rep.set("serve.coalesced_ratio", ratio(d["lattold_cache_coalesced_total"], lookups), "ratio")
	surr := d["lattold_surrogate_hits_total"] + d[`lattold_surrogate_fallbacks_total{reason="bound_exceeded"}`] +
		d[`lattold_surrogate_fallbacks_total{reason="ineligible"}`]
	rep.set("surrogate.hit_ratio", ratio(d["lattold_surrogate_hits_total"], surr), "ratio")
	rep.set("cluster.forwards", ratio(d[`lattold_peer_requests_total{outcome="forwarded"}`], float64(attempted)), "1/op")
	rep.set("serve.queue_wait_us", 1e6*ratio(d["lattold_queue_wait_seconds_sum"], d["lattold_queue_wait_seconds_count"]), "us")
	shed := d[`lattold_shed_total{reason="queue_full"}`] + d[`lattold_shed_total{reason="draining"}`] + d[`lattold_shed_total{reason="rate_limited"}`]
	rep.set("serve.shed_ratio", ratio(shed, float64(attempted)), "ratio")
	rep.set("mva.iterations", ratio(d["lattold_solve_iterations_sum"], d["lattold_solve_iterations_count"]), "count")
	rep.details["metrics_delta"] = d.character()
}

// loadPhase runs the workload's own load shape (open loop at the fixed rate,
// or the closed loop) against the in-process stack with tracing off, for the
// counters and the generator's lag.
func (t *traceRun) loadPhase(ctx context.Context, p *inproc, sched schedule, entry func(request) int, closed bool, dur time.Duration) error {
	sys := p.system()
	rec := &recorder{}
	send := sender(sys.clients, sched.req, func(i int) int { return entry(sched.req[i]) }, func(int) bool { return true }, rec)
	before := p.metrics()
	var res phaseResult
	if closed {
		res = runClosed(ctx, nproc(), dur, len(sched.req), send)
	} else {
		res = runOpen(ctx, sched.due, nproc(), send)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	d := delta(before, p.metrics())
	t.counters(d, res.attempted)
	t.rep.attempted += res.attempted
	t.rep.failed += res.failed
	bytesSum, n := 0, 0
	for _, r := range rec.resp {
		bytesSum += len(r.Body)
		n++
	}
	t.rep.set("serve.resp_bytes", float64(bytesSum)/float64(max(n, 1)), "bytes")
	if !closed {
		lag := append([]float64(nil), res.lag...)
		sort.Float64s(lag)
		t.rep.set("gen.lag_p99_ms", quantile(lag, 0.99), "ms")
	}
	return nil
}

// replay sends requests one at a time for dur, alternating traced and
// untraced operations so the two see the same conditions. A traced
// operation records its round trip (and the handler and forward spans
// inside it), then calls children to replay the layers below the handler.
func (t *traceRun) replay(ctx context.Context, p *inproc, reqs []request, entry func(request) int, dur time.Duration, children func(i int, req request, res *lattolclient.RawResponse)) {
	deadline := time.Now().Add(dur)
	for i := 0; i < len(reqs) && time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		req := reqs[i]
		c := p.clients[entry(req)]
		traced := i%2 == 0
		t.tr.req.Store(int64(i))
		t.tr.on.Store(traced)
		start := time.Now()
		res, err := c.PostRaw(ctx, req.path, req.body, nil)
		end := time.Now()
		t.rep.attempted++
		if err != nil || res.Status != http.StatusOK {
			t.rep.failed++
			t.tr.on.Store(false)
			continue
		}
		if !traced {
			t.untraced = append(t.untraced, float64(end.Sub(start))/1e3)
			continue
		}
		t.tr.add("client.rtt", "", start, end)
		children(i, req, res)
		t.tr.on.Store(false)
	}
}

// ---- hot ----

func (t *traceRun) hot(ctx context.Context) error {
	h, grid, err := newHotState(t.o.seed)
	if err != nil {
		return err
	}
	p, err := startInproc(2, grid, t.tr)
	if err != nil {
		return err
	}
	defer p.close()
	if err := h.prewarm(p.system()); err != nil {
		return err
	}
	// The shadow evaluator stands in for the owner's: same grid, same
	// prewarmed keys, so replayed calls take the path the real one took.
	shadow := serve.NewEvaluator(serve.Config{})
	defer shadow.Close()
	shadow.SetSurrogate(grid)
	for i := range h.set {
		if _, _, _, err := shadow.SolveBounded(ctx, serve.ModelRequest(h.set[i].req)); err != nil {
			return err
		}
	}
	S := time.Duration(t.o.seconds * float64(time.Second))
	entry := func(req request) int { return h.entry[req.ref] }
	if err := t.loadPhase(ctx, p, hotSchedule(t.o.seed, phaseTraceLoad, hotRate, S*30/100, h.set), entry, false, 0); err != nil {
		return err
	}
	reqs := hotSchedule(t.o.seed, phaseTraceReplay, hotRate, S, h.set).req
	t.replay(ctx, p, reqs, entry, S*60/100, func(i int, req request, res *lattolclient.RawResponse) {
		t.verify(fmt.Sprintf("request %d", i), h.check(req, res))
		hc := &h.set[req.ref]
		mr := serve.ModelRequest(hc.req)
		var k serve.Key
		t.tr.timed("serve.key", "serve.handler.entry", func() { k, _ = serve.SolveKey(mr) })
		t.tr.timed("cluster.route", "serve.handler.entry", func() { p.ring.Owner(k.Hash()) })
		t.tr.timed("serve.key", "serve.handler", func() { _, _ = serve.SolveKey(mr) })
		t.tr.timed("serve.evaluator", "serve.handler", func() { _, _, _, _ = shadow.SolveBounded(ctx, mr) })
		if hc.maxErr {
			q := surrogate.Query{K: hc.cfg.K, NT: hc.cfg.Threads, R: hc.cfg.Runlength, PRemote: hc.cfg.PRemote, Psw: hc.cfg.Psw}
			t.tr.timed("surrogate.lookup", "serve.evaluator", func() { grid.Lookup(q, hotMaxError) })
		}
	})
	t.cacheLookup()
	return nil
}

// cacheLookup reports the evaluator's self time on spans that were LRU
// hits: what canonicalizing and looking a key up costs.
func (t *traceRun) cacheLookup() {
	// On hot every exact-key evaluator span is a hit and has no children;
	// spans with a surrogate child are excluded by taking the evaluator spans
	// of requests without a surrogate.lookup span.
	withSurr := map[int]bool{}
	for _, s := range t.tr.spans {
		if s.Layer == "surrogate.lookup" {
			withSurr[s.Req] = true
		}
	}
	var sum float64
	n := 0
	for _, s := range t.tr.spans {
		if s.Layer == "serve.evaluator" && !withSurr[s.Req] {
			sum += float64(s.dur())
			n++
		}
	}
	if n > 0 {
		t.rep.set("serve.cache_lookup_ns", sum/float64(n), "ns")
	}
}

// ---- cold ----

func (t *traceRun) cold(ctx context.Context) error {
	p, err := startInproc(1, nil, t.tr)
	if err != nil {
		return err
	}
	defer p.close()
	shadow := serve.NewEvaluator(serve.Config{})
	defer shadow.Close()
	S := time.Duration(t.o.seconds * float64(time.Second))
	entry := func(request) int { return 0 }
	load, _ := coldSchedule(t.o.seed, phaseTraceLoad, 0, coldRate, S*30/100)
	if err := t.loadPhase(ctx, p, load, entry, false, 0); err != nil {
		return err
	}
	reqs, ops := coldSchedule(t.o.seed, phaseTraceReplay, len(load.req), coldRate, S)
	ws := new(mms.Workspace)
	opts := mms.SolveOptions{Workspace: ws, WarmStart: true, Accel: mva.AccelAnderson}
	var allocs []float64
	t.replay(ctx, p, reqs.req, entry, S*60/100, func(i int, _ request, res *lattolclient.RawResponse) {
		op := ops[i]
		if i%(2*coldSample) == 0 {
			t.verify(fmt.Sprintf("request %d", i), checkColdOp(op, res.Body))
		}
		m := modelRequest(op.cfg)
		if !op.tol {
			t.tr.timed("serve.key", "serve.handler", func() { _, _ = serve.SolveKey(serve.ModelRequest(m)) })
			t.tr.timed("serve.evaluator", "serve.handler", func() { _, _, _, _ = shadow.SolveBounded(ctx, serve.ModelRequest(m)) })
			t.buildSolve(op.cfg, opts)
			if len(allocs) < 64 {
				allocs = append(allocs, buildAllocs(op.cfg))
			}
			return
		}
		tr := serve.ToleranceRequest{ModelRequest: serve.ModelRequest(m), Subsystem: op.sub.String(), Mode: op.mode.String()}
		t.tr.timed("serve.key", "serve.handler", func() { _, _ = serve.ToleranceKey(tr) })
		t.tr.timed("serve.evaluator", "serve.handler", func() { _, _, _ = shadow.Tolerance(ctx, tr) })
		t.buildSolve(op.cfg, opts)
		if ideal, err := tolerance.IdealConfig(op.cfg, op.sub, op.mode); err == nil {
			t.buildSolve(ideal, opts)
		}
	})
	t.rep.set("mms.build_allocs", median(allocs), "count")
	return nil
}

// buildSolve replays the solver work of one model: mms.Build, then
// Model.Solve with the options the serving layer's workers use.
func (t *traceRun) buildSolve(cfg mms.Config, opts mms.SolveOptions) {
	var m *mms.Model
	t.tr.timed("mms.build", "serve.evaluator", func() { m, _ = mms.Build(cfg) })
	if m != nil {
		t.tr.timed("mva.solve", "serve.evaluator", func() { _, _ = m.Solve(opts) })
	}
}

// buildAllocs counts the heap allocations of one mms.Build.
func buildAllocs(cfg mms.Config) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	_, _ = mms.Build(cfg)
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// ---- plan-batch ----

func (t *traceRun) planBatch(ctx context.Context) error {
	p, err := startInproc(1, nil, t.tr)
	if err != nil {
		return err
	}
	defer p.close()
	shadow := serve.NewEvaluator(serve.Config{})
	defer shadow.Close()
	S := time.Duration(t.o.seconds * float64(time.Second))
	entry := func(request) int { return 0 }
	_, load, err := planBatchPool(t.o.seed, warmBase, int(pbSupplyRate*0.3*t.o.seconds)+3)
	if err != nil {
		return err
	}
	if err := t.loadPhase(ctx, p, schedule{req: load}, entry, true, S*30/100); err != nil {
		return err
	}
	ops, reqs, err := planBatchPool(t.o.seed, 0, int(pbSupplyRate*0.6*t.o.seconds)+3)
	if err != nil {
		return err
	}
	ws := new(mms.Workspace)
	var perPoint []float64
	var probes, planMs []float64
	t.replay(ctx, p, reqs, entry, S*60/100, func(i int, _ request, res *lattolclient.RawResponse) {
		op := ops[i]
		if op.kind == pbPlan || i%4 == 0 {
			t.verify(fmt.Sprintf("%s request %d", op.kind, i), checkPlanBatch(op, res.Body))
		}
		var items []mms.BatchItem
		switch op.kind {
		case pbBatch:
			body := make([]serve.BatchItemRequest, len(op.items))
			for j, it := range op.items {
				body[j] = serve.BatchItemRequest{ModelRequest: serve.ModelRequest(modelRequest(it.cfg))}
				items = append(items, mms.BatchItem{Config: it.cfg})
				if it.tol {
					body[j].Op, body[j].Subsystem, body[j].Mode = "tolerance", it.sub.String(), it.mode.String()
					ideal, _ := tolerance.IdealConfig(it.cfg, it.sub, it.mode)
					items = append(items, mms.BatchItem{Config: ideal})
				}
			}
			out := make([]serve.BatchOutcome, len(body))
			t.tr.timed("serve.evaluator", "serve.handler", func() { _ = shadow.Batch(ctx, body, out) })
		case pbSweep:
			knob, _ := mms.ParseParam(op.param)
			for _, v := range knob.Grid(op.from, op.to, sweepSteps) {
				cfg := op.base
				knob.Apply(&cfg, v)
				net, _ := tolerance.IdealConfig(cfg, tolerance.Network, tolerance.ZeroRemote)
				mem, _ := tolerance.IdealConfig(cfg, tolerance.Memory, tolerance.ZeroDelay)
				items = append(items, mms.BatchItem{Config: cfg}, mms.BatchItem{Config: net},
					mms.BatchItem{Config: cfg}, mms.BatchItem{Config: mem})
			}
			sr := serve.SweepRequest{ModelRequest: serve.ModelRequest(modelRequest(op.base)),
				Param: op.param, From: op.from, To: op.to, Steps: sweepSteps}
			t.tr.timed("serve.evaluator", "serve.handler", func() { _, _ = shadow.Sweep(ctx, sr) })
		case pbPlan:
			var pr serve.PlanRequest
			if err := json.Unmarshal(op.req.body, &pr); err != nil {
				return
			}
			t0 := time.Now()
			t.tr.timed("serve.evaluator", "serve.handler", func() { _, _ = shadow.Plan(ctx, pr) })
			planMs = append(planMs, ms(time.Since(t0)))
			var got lattolclient.PlanResponse
			if json.Unmarshal(res.Body, &got) == nil {
				probes = append(probes, float64(got.Probes))
			}
			return
		}
		t0 := time.Now()
		t.tr.timed("mms.solve_batch", "serve.evaluator", func() {
			_ = mms.SolveBatch(items, mms.SolveOptions{Workspace: ws, WarmStart: true, Accel: mva.AccelAnderson})
		})
		perPoint = append(perPoint, float64(time.Since(t0))/1e3/float64(len(items)))
	})
	t.rep.set("mva.batch_us_per_point", mean(perPoint), "us")
	t.rep.set("inverse.probes_per_plan", mean(probes), "count")
	t.rep.set("inverse.plan_ms", mean(planMs), "ms")
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ---- replicate ----

// evaluatorSeed is the base seed replicate.Evaluator runs a configuration
// with (its documented derivation from the configuration's field bits), so
// the replayed replicate.Run repeats the evaluation's own replications.
func evaluatorSeed(base int64, cfg mms.Config) int64 {
	return sweep.DeriveSeed(base,
		int64(cfg.K),
		int64(cfg.Threads),
		int64(math.Float64bits(cfg.Runlength)),
		int64(math.Float64bits(cfg.ContextSwitch)),
		int64(math.Float64bits(cfg.MemoryTime)),
		int64(math.Float64bits(cfg.SwitchTime)),
		int64(math.Float64bits(cfg.PRemote)),
		int64(math.Float64bits(cfg.Psw)),
		int64(cfg.GeometricMode),
		int64(cfg.MemoryPorts),
		int64(cfg.SwitchPorts),
	)
}

func (t *traceRun) replicate(ctx context.Context) error {
	S := time.Duration(t.o.seconds * float64(time.Second))
	ev, err := newRepEvaluator(ctx, t.o.seed, nproc())
	if err != nil {
		return err
	}
	opts := repOptions(t.o.seed, nproc())
	var reps, repMs, perAccess, accesses []float64
	deadline := time.Now().Add(S * 60 / 100)
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		q := replicateQuery(t.o.seed, i)
		// Queries alternate plain/tolerance, so trace them in pairs.
		traced := i%4 < 2
		t.tr.req.Store(int64(i))
		t.tr.on.Store(traced)
		start := time.Now()
		m, err := evalQuery(ctx, ev, q)
		end := time.Now()
		t.rep.attempted++
		if err != nil {
			t.rep.failed++
			t.tr.on.Store(false)
			continue
		}
		reps = append(reps, float64(m.Solves))
		if !traced {
			t.untraced = append(t.untraced, float64(end.Sub(start))/1e3)
			continue
		}
		t.tr.add("replicate.evaluate", "", start, end)
		cfgs := []mms.Config{q.cfg}
		if q.tol {
			if ideal, err := tolerance.IdealConfig(q.cfg, tolerance.Network, tolerance.ZeroRemote); err == nil {
				cfgs = append(cfgs, ideal)
			}
		}
		for _, cfg := range cfgs {
			o := opts
			o.Sim.Seed = evaluatorSeed(t.o.seed, cfg)
			t.tr.timed("replicate.run", "replicate.evaluate", func() { _, _ = replicate.Run(ctx, cfg, o) })
			// One replication of the run, timed alone.
			r, err := simmms.NewReplicator(cfg, o.Sim)
			if err != nil {
				continue
			}
			var res simmms.Result
			t0 := time.Now()
			t.tr.timed("des.replication", "replicate.run", func() { res = r.Replicate(o.Sim.Seed) })
			d := time.Since(t0)
			repMs = append(repMs, ms(d))
			accesses = append(accesses, float64(res.Accesses))
			if res.Accesses > 0 {
				perAccess = append(perAccess, float64(d)/float64(res.Accesses))
			}
		}
		t.tr.on.Store(false)
	}
	t.rep.set("replicate.reps_per_eval", mean(reps), "count")
	t.rep.set("replicate.rep_ms", mean(repMs), "ms")
	t.rep.set("des.ns_per_access", mean(perAccess), "ns")
	t.rep.set("des.accesses_per_rep", mean(accesses), "count")

	// Scaling: the same evaluations on fresh 1-worker and nproc-worker
	// evaluators (fresh, so neither reuses the other's memoized ideals).
	n := 0
	var seq, par time.Duration
	budget := time.Now().Add(S * 35 / 100)
	for time.Now().Before(budget) && ctx.Err() == nil {
		q := replicateQuery(t.o.seed, 1<<20+n)
		t0 := time.Now()
		if _, err := evalQuery(ctx, replicate.NewEvaluator(repOptions(t.o.seed, 1)), q); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := evalQuery(ctx, replicate.NewEvaluator(repOptions(t.o.seed, nproc())), q); err != nil {
			return err
		}
		seq += t1.Sub(t0)
		par += time.Since(t1)
		n++
	}
	if par > 0 {
		t.rep.set("replicate.scaling", float64(seq)/float64(par), "ratio")
	}
	t.rep.details["scaling"] = map[string]any{"evaluations": n, "sequential_s": seq.Seconds(), "parallel_s": par.Seconds(), "workers": nproc()}
	return nil
}
