package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	lattolclient "lattol/internal/client"
	"lattol/internal/mms"
	"lattol/internal/serve"
	"lattol/internal/surrogate"
	"lattol/internal/sweep"
	"lattol/internal/tolerance"
)

// Every random draw derives from (seed, stream, index) through
// sweep.DeriveSeed, so a request's bytes depend only on the seed and its
// position — never on timing, concurrency or how many requests an earlier
// phase managed to send.
const (
	streamHotConfigs = iota + 1
	streamHotSeq
	streamCold
	streamColdSeq
	streamPlanBatch
	streamReplicate
)

// rngFor returns the generator of draw i of a stream. PCG's 128-bit state
// keeps every (seed, stream, i) on its own sequence; a 64-bit seed folded
// into math/rand's 31-bit source would repeat a "fresh" point every few
// tens of thousands of requests.
func rngFor(seed int64, stream, i int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(sweep.DeriveSeed(seed, int64(stream))), uint64(i)))
}

// Fixed operating settings. They are part of the benchmark's definition:
// BENCHMARK.json states the rates and limits in each workload's why line,
// and TestSettingsMatchBenchmarkJSON keeps the two in step.
const (
	hotConfigs  = 300    // distinct keys in the hot set
	hotZipfS    = 1.1    // zipf exponent of key popularity
	hotMaxError = 0.02   // max_error carried by the surrogate share
	hotRate     = 1500.0 // fixed offered rate, requests/s
	hotLimitMs  = 50.0   // p99 limit for max_rate_rps

	coldRate    = 600.0 // fixed offered rate, requests/s
	coldLimitMs = 50.0  // p99 limit for max_rate_rps

	batchItems = 32 // items per /v1/batch on plan-batch
	sweepSteps = 16 // steps per /v1/sweep on plan-batch

	// Replicated simulation: a short horizon keeps one evaluation in the
	// millisecond range so a run holds enough evaluations for a p99.
	repWarmup    = 200
	repDuration  = 2000
	repPrecision = 0.05
	repMinReps   = 4
	repMaxReps   = 16
)

// request is one generated call: the endpoint, its exact body, and the index
// of the reference data its answer is checked against.
type request struct {
	path string
	body []byte
	ref  int
}

// boxConfig draws an operating point from the region of the paper's Figures
// 4–7 (the surrogate DefaultSpec box) on a k×k torus.
func boxConfig(r *rand.Rand, k int) mms.Config {
	return mms.Config{
		K:          k,
		Threads:    1 + r.IntN(10),
		Runlength:  5 + 25*r.Float64(),
		MemoryTime: 10,
		SwitchTime: 10,
		PRemote:    0.05 + 0.85*r.Float64(),
		Psw:        0.2 + 0.6*r.Float64(),
	}
}

// modelRequest is the wire form of cfg.
func modelRequest(cfg mms.Config) lattolclient.ModelRequest {
	return lattolclient.ModelRequest{
		K: cfg.K, Threads: cfg.Threads, Runlength: cfg.Runlength,
		MemoryTime: cfg.MemoryTime, SwitchTime: cfg.SwitchTime,
		PRemote: cfg.PRemote, Psw: cfg.Psw,
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return b
}

// ---- hot ----

// hotConfig is one key of the hot set.
type hotConfig struct {
	cfg    mms.Config
	req    lattolclient.ModelRequest
	body   []byte
	hash   uint64      // canonical key hash: what the ring routes on
	want   mms.Metrics // exact reference (filled by newHotState)
	maxErr bool        // answered by the surrogate tier
}

// newHotSet draws the hot key set. Every third key carries max_error at an
// off-lattice point whose grid cell certifies hotMaxError, so the daemon
// answers it by interpolation; the rest are exact solves that the set-up
// prewarms into the owners' LRUs.
func newHotSet(seed int64, grid *surrogate.Grid) ([]hotConfig, error) {
	r := rngFor(seed, streamHotConfigs, 0)
	spec := grid.Spec()
	set := make([]hotConfig, 0, hotConfigs)
	seen := make(map[uint64]bool, hotConfigs)
	for tries := 0; len(set) < hotConfigs; tries++ {
		if tries > 100*hotConfigs {
			return nil, fmt.Errorf("hot: could not draw %d distinct keys", hotConfigs)
		}
		hc := hotConfig{cfg: boxConfig(r, 4), maxErr: len(set)%3 == 1}
		hc.req = modelRequest(hc.cfg)
		if hc.maxErr {
			q := surrogate.Query{K: hc.cfg.K, NT: hc.cfg.Threads, R: hc.cfg.Runlength, PRemote: hc.cfg.PRemote, Psw: hc.cfg.Psw}
			if onLattice(spec, q) {
				continue
			}
			if _, _, st := grid.Lookup(q, hotMaxError); st != surrogate.Hit {
				continue
			}
			hc.req.MaxError = hotMaxError
		}
		k, err := serve.SolveKey(serve.ModelRequest(hc.req))
		if err != nil {
			return nil, fmt.Errorf("hot: key %d: %w", len(set), err)
		}
		if seen[k.Hash()] {
			continue
		}
		seen[k.Hash()] = true
		hc.hash = k.Hash()
		hc.body = mustJSON(hc.req)
		set = append(set, hc)
	}
	return set, nil
}

// onLattice reports whether any interpolated coordinate of q sits exactly on
// a grid node value (such a point is answered exactly, not interpolated).
func onLattice(spec surrogate.Spec, q surrogate.Query) bool {
	for _, ax := range []struct {
		vals []float64
		v    float64
	}{{spec.R, q.R}, {spec.PRemote, q.PRemote}, {spec.Psw, q.Psw}} {
		for _, x := range ax.vals {
			if x == ax.v {
				return true
			}
		}
	}
	return false
}

// schedule is an open-loop arrival sequence: due times relative to the phase
// start and the request each one sends.
type schedule struct {
	due []time.Duration
	req []request
}

// poissonDue draws n Poisson arrival offsets at rate per second.
func poissonDue(r *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// hotSchedule is phase `phase` of the hot workload: Poisson arrivals at rate,
// keys drawn zipf over the hot set.
func hotSchedule(seed int64, phase int, rate float64, dur time.Duration, set []hotConfig) schedule {
	r := rngFor(seed, streamHotSeq, phase)
	due := poissonDue(r, rate, dur)
	z := rand.NewZipf(r, hotZipfS, 1, uint64(len(set)-1))
	s := schedule{due: due, req: make([]request, len(due))}
	for i := range due {
		j := int(z.Uint64())
		s.req[i] = request{path: "/v1/solve", body: set[j].body, ref: j}
	}
	return s
}

// ---- cold ----

// coldKs is the torus-size mix of cold; the small k=24 share sets the tail.
var coldKs = []struct {
	k     int
	share float64
}{{4, 0.35}, {8, 0.30}, {12, 0.20}, {16, 0.12}, {24, 0.03}}

func drawK(r *rand.Rand, maxK int) int {
	u := r.Float64()
	total := 0.0
	for _, c := range coldKs {
		if c.k <= maxK {
			total += c.share
		}
	}
	u *= total
	for _, c := range coldKs {
		if c.k > maxK {
			continue
		}
		if u < c.share {
			return c.k
		}
		u -= c.share
	}
	return coldKs[0].k
}

// coldOp is one fresh operating point: a solve, or a tolerance query of one
// subsystem.
type coldOp struct {
	cfg  mms.Config
	tol  bool
	sub  tolerance.Subsystem
	mode tolerance.IdealMode
}

func (o coldOp) request(ref int) request {
	m := modelRequest(o.cfg)
	if !o.tol {
		return request{path: "/v1/solve", body: mustJSON(m), ref: ref}
	}
	return request{path: "/v1/tolerance", body: mustJSON(lattolclient.ToleranceRequest{
		ModelRequest: m, Subsystem: o.sub.String(), Mode: o.mode.String(),
	}), ref: ref}
}

// freshOp draws the i-th fresh operating point of a stream: 70% solves, 30%
// tolerance queries (two thirds network, one third memory), k from the cold
// mix up to maxK.
func freshOp(r *rand.Rand, maxK int) coldOp {
	o := coldOp{cfg: boxConfig(r, drawK(r, maxK))}
	if r.Float64() < 0.3 {
		o.tol = true
		o.sub, o.mode = tolerance.Network, tolerance.ZeroRemote
		if r.IntN(3) == 0 {
			o.sub, o.mode = tolerance.Memory, tolerance.ZeroDelay
		}
	}
	return o
}

// coldSchedule is phase `phase` of cold: Poisson arrivals, every request a
// fresh operating point. first is the global index of the phase's first
// request, so no two phases share a point.
func coldSchedule(seed int64, phase, first int, rate float64, dur time.Duration) (schedule, []coldOp) {
	due := poissonDue(rngFor(seed, streamColdSeq, phase), rate, dur)
	s := schedule{due: due, req: make([]request, len(due))}
	ops := make([]coldOp, len(due))
	for i := range due {
		ops[i] = freshOp(rngFor(seed, streamCold, first+i), 24)
		s.req[i] = ops[i].request(first + i)
	}
	return s, ops
}

// ---- plan-batch ----

// pbKind is the operation a plan-batch request performs; clients cycle
// batch → sweep → plan by global request index.
type pbKind int

const (
	pbBatch pbKind = iota
	pbSweep
	pbPlan
)

func (k pbKind) String() string { return [...]string{"batch", "sweep", "plan"}[k] }

// pbOp is one generated plan-batch request with what its check needs.
type pbOp struct {
	kind   pbKind
	items  []coldOp   // batch
	base   mms.Config // sweep, plan
	param  string     // sweep knob
	from   float64    // sweep range
	to     float64    //
	target float64    // plan: tol_network target
	req    request
}

// planBatchOp generates request i of plan-batch. Batch items come from the
// cold mix without k=24; sweep and plan bases are fresh k ∈ {4, 8} points.
// A plan's target is the network tolerance of its base at a drawn thread
// count n* ∈ [2, 12] (solved here, never by the daemon), so every plan has
// an answer at or below n*.
func planBatchOp(seed int64, i int) (pbOp, error) {
	r := rngFor(seed, streamPlanBatch, i)
	op := pbOp{kind: pbKind(i % 3)}
	switch op.kind {
	case pbBatch:
		body := lattolclient.BatchRequest{Items: make([]lattolclient.BatchItemRequest, batchItems)}
		op.items = make([]coldOp, batchItems)
		for j := range op.items {
			o := freshOp(r, 16)
			op.items[j] = o
			it := lattolclient.BatchItemRequest{ModelRequest: modelRequest(o.cfg)}
			if o.tol {
				it.Op, it.Subsystem, it.Mode = "tolerance", o.sub.String(), o.mode.String()
			}
			body.Items[j] = it
		}
		op.req = request{path: "/v1/batch", body: mustJSON(body), ref: i}
	case pbSweep:
		op.base = boxConfig(r, 4+4*r.IntN(2))
		if r.IntN(2) == 0 {
			op.param, op.from, op.to = "premote", 0.05+0.2*r.Float64(), 0.6+0.3*r.Float64()
		} else {
			op.param, op.from, op.to = "r", 5+5*r.Float64(), 20+10*r.Float64()
		}
		op.req = request{path: "/v1/sweep", body: mustJSON(serve.SweepRequest{
			ModelRequest: serve.ModelRequest(modelRequest(op.base)),
			Param:        op.param, From: op.from, To: op.to, Steps: sweepSteps,
		}), ref: i}
	case pbPlan:
		op.base = boxConfig(r, 4+4*r.IntN(2))
		at := op.base
		at.Threads = 2 + r.IntN(11)
		idx, err := tolerance.Compute(at, tolerance.Network, tolerance.ZeroRemote, mms.SolveOptions{})
		if err != nil {
			return op, fmt.Errorf("plan-batch: target for request %d: %w", i, err)
		}
		op.target = idx.Tol
		op.req = request{path: "/v1/plan", body: mustJSON(lattolclient.PlanRequest{
			ModelRequest: modelRequest(op.base),
			Knob:         "nt", Metric: "tol_network", Target: op.target,
			KnobMin: 1, KnobMax: 16,
		}), ref: i}
	}
	return op, nil
}

// ---- replicate ----

// repQuery is one replicated evaluation: an operating point, optionally
// with its network tolerance index.
type repQuery struct {
	cfg mms.Config
	tol bool
}

// replicateQuery is query i of the replicate list: k=4 points from the box,
// every other one a tolerance query.
func replicateQuery(seed int64, i int) repQuery {
	r := rngFor(seed, streamReplicate, i)
	return repQuery{cfg: boxConfig(r, 4), tol: i%2 == 1}
}
