package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lattol/internal/access"
	"lattol/internal/mms"
	"lattol/internal/mva"
	"lattol/internal/surrogate"
	"lattol/internal/tolerance"
	"lattol/internal/validate"
)

// Shedding errors. They are returned the moment admission fails — no
// request waits on a queue it will never clear.
var (
	// ErrQueueFull reports that the pending-solve queue is at capacity
	// (HTTP 429: back off and retry).
	ErrQueueFull = errors.New("serve: solve queue full")
	// ErrDraining reports that the evaluator is shutting down and refuses
	// new work (HTTP 503).
	ErrDraining = errors.New("serve: draining, not accepting new work")
)

// Config sizes the evaluator. The zero value selects sensible defaults.
type Config struct {
	// Workers bounds concurrent solver invocations; each worker owns one
	// reusable mms.Workspace. Default GOMAXPROCS.
	Workers int
	// QueueDepth bounds pending (admitted, not yet solving) evaluations;
	// submissions beyond it are shed with ErrQueueFull. Default 8×Workers.
	QueueDepth int
	// CacheEntries bounds completed results kept for reuse. Default 4096.
	CacheEntries int
	// CacheShards is the cache's lock-domain count, rounded up to a power
	// of two. Default 16.
	CacheShards int
	// SolveTimeout is the per-request evaluation budget applied by the HTTP
	// handlers. Default 10s.
	SolveTimeout time.Duration
	// MaxSweepPoints bounds the grid of one /v1/sweep request. Default 1024.
	MaxSweepPoints int
	// MaxBatchItems bounds the item list of one /v1/batch request. Default
	// 1024.
	MaxBatchItems int
	// RateLimit, when positive, enables per-client token-bucket admission on
	// the POST endpoints: sustained requests per second allowed per client
	// identity (X-Lattold-Client header, else remote host). 0 disables.
	RateLimit float64
	// RateBurst is the bucket capacity (instantaneous burst allowance) when
	// RateLimit is set. Default 2×RateLimit, at least 1.
	RateBurst float64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8 * c.Workers
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.SolveTimeout <= 0 {
		c.SolveTimeout = 10 * time.Second
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 1024
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 1024
	}
	if c.RateLimit > 0 && c.RateBurst <= 0 {
		c.RateBurst = math.Max(1, 2*c.RateLimit)
	}
	return c
}

// task is one admitted evaluation waiting for a worker: either a single
// entry (ent) or the cache-missing entries of one batch request (ents),
// solved together as one lockstep batch.
type task struct {
	ent  *entry
	ents []*entry
	ctx  context.Context
	enq  time.Time
}

// Evaluator is the concurrent model-evaluation engine: canonicalized
// requests flow through the result cache (hit or coalesce) and, on a miss,
// through the bounded worker pool. It is safe for concurrent use.
type Evaluator struct {
	cfg   Config
	cache *cache
	met   *Metrics

	mu       sync.Mutex // guards draining and sends on tasks
	draining bool
	tasks    chan task
	wg       sync.WaitGroup

	// solveHook, when non-nil, runs in the worker immediately before each
	// solver invocation. Tests use it to count and gate solves.
	solveHook func(Key)

	// surr is the optional middle tier of the three-level lookup
	// (LRU → surrogate → solver), installed with SetSurrogate. Atomic so a
	// grid can be installed after the evaluator already serves traffic.
	surr atomic.Pointer[surrogateTier]
}

// surrogateTier pairs a loaded grid with its background refiner.
type surrogateTier struct {
	grid *surrogate.Grid
	ref  *surrogate.Refiner
}

// query maps a canonical key onto the grid's query space. Only keys matching
// everything the grid holds fixed qualify: plain symmetric-AMVA solves under
// the default geometric/per-distance pattern, no context-switch overhead,
// single-ported stations, and the grid's memory and switch times. Whether
// the remaining coordinates fall inside the lattice is the grid's own call
// (Lookup reports Ineligible).
func (t *surrogateTier) query(k *Key) (surrogate.Query, bool) {
	spec := t.grid.Spec()
	if k.op != opSolve || k.solver != mms.SymmetricAMVA ||
		k.pattern != patternGeometric || k.geoMode != access.PerDistance ||
		k.contextSwitch != 0 || k.memPorts != 1 || k.swPorts != 1 ||
		k.memoryTime != spec.MemoryTime || k.switchTime != spec.SwitchTime {
		return surrogate.Query{}, false
	}
	return surrogate.Query{K: k.k, NT: k.threads, R: k.runlength, PRemote: k.pRemote, Psw: k.psw}, true
}

// NewEvaluator starts the worker pool and returns a ready evaluator. Call
// Close to drain it.
func NewEvaluator(cfg Config) *Evaluator {
	cfg = cfg.withDefaults()
	e := &Evaluator{
		cfg:   cfg,
		cache: newCache(cfg.CacheEntries, cfg.CacheShards),
		met:   newMetrics(),
		tasks: make(chan task, cfg.QueueDepth),
	}
	e.met.queueDepth = func() int { return len(e.tasks) }
	e.met.cachedEntries = e.cache.len
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Metrics returns the evaluator's live counters.
func (e *Evaluator) Metrics() *Metrics { return e.met }

// SetSurrogate installs (or, with nil, removes) the interpolated answer tier
// and starts a background refiner for it. Requests that state a max_error
// and miss the LRU consult the grid before falling back to the solver pool.
// Safe to call while serving; Close stops the refiner.
func (e *Evaluator) SetSurrogate(g *surrogate.Grid) {
	var t *surrogateTier
	if g != nil {
		t = &surrogateTier{grid: g, ref: surrogate.NewRefiner(g, surrogate.BuildOptions{})}
	}
	if old := e.surr.Swap(t); old != nil && old.ref != nil {
		old.ref.Close()
	}
}

// surrogateLookup tries the interpolated tier for a canonical key. It
// returns ok only when the grid certifies the answer within maxErr; every
// other outcome (no grid, ineligible key, bound too wide) is a recorded
// fall-through to the exact path. A bound-exceeded cell is handed to the
// background refiner so later identical traffic can hit.
func (e *Evaluator) surrogateLookup(k *Key, maxErr float64) (mms.Metrics, float64, bool) {
	t := e.surr.Load()
	if t == nil {
		return mms.Metrics{}, 0, false
	}
	q, ok := t.query(k)
	if !ok {
		e.met.surrogateIneligible.Add(1)
		return mms.Metrics{}, 0, false
	}
	start := time.Now()
	met, bound, st := t.grid.Lookup(q, maxErr)
	switch st {
	case surrogate.Hit:
		e.met.surrogateLatency.observe(time.Since(start))
		e.met.surrogateHits.Add(1)
		return met, bound, true
	case surrogate.BoundExceeded:
		e.met.surrogateBoundExceeded.Add(1)
		if t.ref != nil && t.ref.Request(q) {
			e.met.surrogateRefines.Add(1)
		}
	default:
		e.met.surrogateIneligible.Add(1)
	}
	return mms.Metrics{}, 0, false
}

// Draining reports whether Close has begun.
func (e *Evaluator) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining
}

// Close drains the evaluator: new submissions are refused with ErrDraining,
// queued and in-flight evaluations finish, and Close returns when every
// worker has exited. Safe to call more than once.
func (e *Evaluator) Close() {
	e.mu.Lock()
	if !e.draining {
		e.draining = true
		close(e.tasks)
	}
	e.mu.Unlock()
	e.wg.Wait()
	if t := e.surr.Swap(nil); t != nil && t.ref != nil {
		t.ref.Close()
	}
}

// submit admits a task or sheds it. It never blocks: a full queue is an
// immediate ErrQueueFull, a draining evaluator an immediate ErrDraining.
func (e *Evaluator) submit(t task) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.draining {
		e.met.shedDraining.Add(1)
		return ErrDraining
	}
	select {
	case e.tasks <- t:
		return nil
	default:
		e.met.shedQueueFull.Add(1)
		return ErrQueueFull
	}
}

// worker is the pool loop: one reusable solver workspace and batch scratch
// per worker (the sweep runner's per-worker pattern), so steady-state solves
// allocate nothing beyond model construction. A single-key task is a batch
// of one: every miss takes the same compute path.
func (e *Evaluator) worker() {
	defer e.wg.Done()
	sc := new(workerScratch)
	var one [1]*entry
	for t := range e.tasks {
		e.met.queueWait.observe(time.Since(t.enq))
		ents := t.ents
		if ents == nil {
			one[0] = t.ent
			ents = one[:]
		}
		e.runBatch(t.ctx, sc, ents)
		one[0] = nil
	}
}

// workerScratch is one worker's reusable solve state: the mms workspace
// (whose kernel carries warm-start continuation from solve to solve) and the
// batch item/result storage computeBatch fills.
type workerScratch struct {
	ws    mms.Workspace
	items []mms.BatchItem
	res   []mms.BatchResult
}

// recordSolve updates the solve counters for one completed evaluation.
// Tolerance evaluations solve two systems (real + ideal); both iteration
// counts are recorded so the histogram reflects every solver run, not every
// request.
func (e *Evaluator) recordSolve(res result, err error) {
	e.met.solves.Add(1)
	if err != nil {
		e.met.solveErrors.Add(1)
		return
	}
	if n := res.real.Iterations; n > 0 {
		e.met.solveIterations.observe(uint64(n))
	}
	if n := res.ideal.Iterations; n > 0 {
		e.met.solveIterations.observe(uint64(n))
	}
}

// runBatch solves the cache-missing entries of one task as a single mms
// batch on this worker's workspace, completing each entry positionally.
func (e *Evaluator) runBatch(ctx context.Context, sc *workerScratch, ents []*entry) {
	if err := ctx.Err(); err != nil {
		// The submitter is gone; complete every entry with its context
		// error. Waiters that coalesced onto these entries from other
		// requests see a foreign context error and retry.
		for _, ent := range ents {
			e.cache.complete(ent, result{}, err)
		}
		return
	}
	e.met.inFlight.Add(1)
	if e.solveHook != nil {
		for _, ent := range ents {
			e.solveHook(ent.key)
		}
	}
	start := time.Now()
	e.computeBatch(sc, ents)
	e.met.solveLatency.observe(time.Since(start))
	e.met.inFlight.Add(-1)
}

// computeBatch translates entries into mms batch items — one per solve key,
// two per tolerance key (real system, then ideal) — runs them as one lockstep
// batch and completes each entry from its span of the positional results.
// The workspace carries its last converged solution forward, so runs of
// same-shape requests converge from a continuation guess instead of from
// scratch (same fixed point); FullAMVA items get Anderson mixing on top.
func (e *Evaluator) computeBatch(sc *workerScratch, ents []*entry) {
	items := sc.items[:0]
	for _, ent := range ents {
		k := ent.key
		cfg := k.config()
		items = append(items, mms.BatchItem{Config: cfg, Solver: k.solver})
		if k.op == opTolerance {
			ideal, err := tolerance.IdealConfig(cfg, k.sub, k.mode)
			if err != nil {
				// Canonical keys carry validated subsystem/mode pairs, so this
				// is unreachable; keep the span aligned and report it below.
				ideal = cfg
			}
			items = append(items, mms.BatchItem{Config: ideal, Solver: k.solver})
		}
	}
	sc.items = items
	if cap(sc.res) < len(items) {
		sc.res = make([]mms.BatchResult, len(items))
	}
	results := sc.res[:len(items)]
	mms.SolveBatchInto(results, items, mms.SolveOptions{Workspace: &sc.ws, WarmStart: true, Accel: mva.AccelAnderson})
	pos := 0
	for _, ent := range ents {
		k := ent.key
		var res result
		var err error
		switch k.op {
		case opTolerance:
			re, id := results[pos], results[pos+1]
			pos += 2
			switch {
			case re.Err != nil:
				err = re.Err
			case id.Err != nil:
				err = id.Err
			default:
				if _, ierr := tolerance.IdealConfig(k.config(), k.sub, k.mode); ierr != nil {
					err = ierr
					break
				}
				res = result{real: re.Metrics, ideal: id.Metrics, tol: tolerance.Ratio(re.Metrics.Up, id.Metrics.Up)}
			}
		default: // opSolve
			re := results[pos]
			pos++
			res.real, err = re.Metrics, re.Err
		}
		e.recordSolve(res, err)
		if n := e.cache.complete(ent, res, err); n > 0 {
			e.met.cacheEvictions.Add(uint64(n))
		}
	}
}

// retryableCompletion reports whether an entry's completion error belongs to
// the leader's request rather than to the key itself: the leader's context
// expired before a worker picked the task up, or its submission was shed.
// Nothing about the key is wrong in those cases, so a coalesced waiter whose
// own context is live must not inherit the error — it retries getOrStart.
// Solver and validation errors are properties of the key and surface to every
// waiter.
func retryableCompletion(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrQueueFull) ||
		errors.Is(err, ErrDraining)
}

// evalKey satisfies one canonical evaluation: cache hit, coalesce onto an
// identical in-flight evaluation, or lead a new one through the pool. When
// the caller's context expires while leading, the solve itself keeps running
// and its result still lands in the cache for later requests. A waiter that
// coalesced onto a leader whose context died (or whose submission was shed)
// retries with its own admission rather than inheriting the foreign error.
func (e *Evaluator) evalKey(ctx context.Context, k Key) (result, cacheState, error) {
	for {
		ent, st := e.cache.getOrStart(k)
		switch st {
		case stateHit:
			e.met.cacheHits.Add(1)
			return ent.res, st, nil
		case stateWait:
			e.met.cacheCoalesced.Add(1)
			select {
			case <-ent.done:
				if retryableCompletion(ent.err) && ctx.Err() == nil {
					continue
				}
				return ent.res, st, ent.err
			case <-ctx.Done():
				return result{}, st, ctx.Err()
			}
		default: // stateLead
			e.met.cacheMisses.Add(1)
			if err := e.submit(task{ent: ent, ctx: ctx, enq: time.Now()}); err != nil {
				// Wake any waiter that coalesced onto us in the meantime; our
				// admission error is foreign to them, so they retry. Nothing
				// is cached.
				e.cache.complete(ent, result{}, err)
				return result{}, st, err
			}
			select {
			case <-ent.done:
				return ent.res, st, ent.err
			case <-ctx.Done():
				return result{}, st, ctx.Err()
			}
		}
	}
}

// keyOutcome is the per-position product of evalKeyBatch.
type keyOutcome struct {
	res result
	st  cacheState
	err error
}

// evalKeyBatch satisfies a positional list of canonical keys. Cache hits are
// extracted inline before any solver runs; keys already in flight elsewhere
// are coalesced; every remaining miss is submitted as ONE batch task, so a
// single worker iterates all of them in lockstep with continuation seeding
// between the points. Positions whose key is the zero Key (op 0) are skipped —
// the caller has already resolved them. out must have len(keys).
func (e *Evaluator) evalKeyBatch(ctx context.Context, keys []Key, out []keyOutcome) {
	var pending []*entry // index-aligned with keys; nil on the all-hit fast path
	var leads []*entry
	for i := range keys {
		if keys[i].op == 0 {
			continue
		}
		ent, st := e.cache.getOrStart(keys[i])
		out[i].st = st
		switch st {
		case stateHit:
			e.met.cacheHits.Add(1)
			out[i].res = ent.res
		case stateWait:
			e.met.cacheCoalesced.Add(1)
			if pending == nil {
				pending = make([]*entry, len(keys))
			}
			pending[i] = ent
		default: // stateLead
			e.met.cacheMisses.Add(1)
			if pending == nil {
				pending = make([]*entry, len(keys))
			}
			pending[i] = ent
			leads = append(leads, ent)
		}
	}
	if pending == nil {
		return
	}
	if len(leads) > 0 {
		if err := e.submit(task{ents: leads, ctx: ctx, enq: time.Now()}); err != nil {
			// Admission failed for the whole batch. Complete our entries so
			// strangers coalesced onto them retry; our own positions surface
			// the admission error through the wait loop below.
			for _, ent := range leads {
				e.cache.complete(ent, result{}, err)
			}
		}
	}
	for i := range keys {
		ent := pending[i]
		if ent == nil {
			continue
		}
		if out[i].st != stateWait {
			// Our own lead: its completion error — solver, admission or our
			// context — is ours to surface. No retry.
			select {
			case <-ent.done:
				out[i].res, out[i].err = ent.res, ent.err
			case <-ctx.Done():
				out[i].err = ctx.Err()
			}
			continue
		}
		// Coalesced onto a stranger's in-flight evaluation: retry on foreign
		// completion errors, exactly as the single-key path does.
		select {
		case <-ent.done:
			if retryableCompletion(ent.err) && ctx.Err() == nil {
				out[i].res, out[i].st, out[i].err = e.evalKey(ctx, keys[i])
			} else {
				out[i].res, out[i].err = ent.res, ent.err
			}
		case <-ctx.Done():
			out[i].err = ctx.Err()
		}
	}
}

// Solve evaluates one model configuration, reporting how the cache satisfied
// the request alongside the metrics.
func (e *Evaluator) Solve(ctx context.Context, r ModelRequest) (mms.Metrics, cacheState, error) {
	met, _, st, err := e.SolveBounded(ctx, r)
	return met, st, err
}

// SolveBounded is Solve through the three-level lookup, additionally
// reporting the certified relative error bound of the answer. When the
// request states a MaxError, the tiers are consulted in order — LRU (exact,
// bound 0), surrogate grid (interpolated, bound ≤ MaxError), solver pool
// (exact, bound 0) — and the first to answer wins. Without a MaxError the
// request takes the exact path unchanged. The LRU and surrogate tiers run
// inline and allocation-free.
func (e *Evaluator) SolveBounded(ctx context.Context, r ModelRequest) (mms.Metrics, float64, cacheState, error) {
	cfg, pat, geo, solver, err := r.components()
	if err != nil {
		return mms.Metrics{}, 0, stateLead, err
	}
	if err := validateConfig(cfg, pat); err != nil {
		return mms.Metrics{}, 0, stateLead, err
	}
	k := canonicalKey(cfg, pat, geo, solver, opSolve, 0, 0)
	if r.MaxError > 0 {
		if res, ok := e.cache.peek(&k); ok {
			e.met.cacheHits.Add(1)
			return res.real, 0, stateHit, nil
		}
		if met, bound, ok := e.surrogateLookup(&k, r.MaxError); ok {
			return met, bound, stateSurrogate, nil
		}
	}
	res, st, err := e.evalKey(ctx, k)
	return res.real, 0, st, err
}

// ToleranceOutcome is the resolved product of one tolerance evaluation.
type ToleranceOutcome struct {
	Subsystem tolerance.Subsystem
	Mode      tolerance.IdealMode
	Tol       float64
	Real      mms.Metrics
	Ideal     mms.Metrics
}

// Zone classifies the outcome's tolerance index.
func (o ToleranceOutcome) Zone() tolerance.Zone { return tolerance.Classify(o.Tol) }

// Tolerance evaluates a tolerance index (real and ideal system solves share
// one cache entry under the request's canonical key).
func (e *Evaluator) Tolerance(ctx context.Context, r ToleranceRequest) (ToleranceOutcome, cacheState, error) {
	sub, err := parseSubsystem(r.Subsystem)
	if err != nil {
		return ToleranceOutcome{}, stateLead, err
	}
	mode, err := parseMode(r.Mode, sub)
	if err != nil {
		return ToleranceOutcome{}, stateLead, err
	}
	cfg, pat, geo, solver, err := r.components()
	if err != nil {
		return ToleranceOutcome{}, stateLead, err
	}
	if err := validateConfig(cfg, pat); err != nil {
		return ToleranceOutcome{}, stateLead, err
	}
	k := canonicalKey(cfg, pat, geo, solver, opTolerance, sub, mode)
	res, st, err := e.evalKey(ctx, k)
	if err != nil {
		return ToleranceOutcome{}, st, err
	}
	return ToleranceOutcome{Subsystem: sub, Mode: mode, Tol: res.tol, Real: res.real, Ideal: res.ideal}, st, nil
}

// BatchOutcome is the positional product of one batch item. Err covers the
// item's own failure — validation, admission, context or solver — and leaves
// its neighbors untouched. Exactly one of Metrics (op "solve") and Tolerance
// (op "tolerance") is meaningful, matching the item's operation.
type BatchOutcome struct {
	Cache     cacheState
	Err       error
	Metrics   mms.Metrics
	Tolerance ToleranceOutcome
	// Bound is the certified relative error bound of an interpolated answer
	// (Cache == stateSurrogate); 0 for exact results.
	Bound float64
}

// Batch evaluates a positional list of items. Each item's canonical key flows
// through the cache first — hits and in-flight coalescing are resolved before
// any solver runs — and all remaining misses are solved as one lockstep batch
// on a single worker, with continuation seeding between the points. out must
// have len(items). The returned error is an envelope error (malformed batch
// as a whole); per-item failures are positional in out.
func (e *Evaluator) Batch(ctx context.Context, items []BatchItemRequest, out []BatchOutcome) error {
	if len(out) != len(items) {
		panic(fmt.Sprintf("serve: Batch: len(out) = %d, want len(items) = %d", len(out), len(items)))
	}
	if len(items) == 0 || len(items) > e.cfg.MaxBatchItems {
		return validate.Fieldf("serve.BatchRequest", "items", "has %d items, want in [1,%d]",
			len(items), e.cfg.MaxBatchItems)
	}
	e.met.batchItems.Add(uint64(len(items)))
	keys := make([]Key, len(items))
	outcomes := make([]keyOutcome, len(items))
	var preResolved []bool
	var bounds []float64
	for i := range items {
		k, err := items[i].key()
		if err != nil {
			out[i] = BatchOutcome{Err: err}
			continue // keys[i] stays the zero Key; evalKeyBatch skips it
		}
		keys[i] = k
		// Per-item three-level lookup: a solve item stating a MaxError tries
		// the LRU (without taking leadership) and then the surrogate grid
		// before joining the lockstep solver batch.
		if k.op != opSolve || items[i].MaxError <= 0 {
			continue
		}
		if res, ok := e.cache.peek(&k); ok {
			e.met.cacheHits.Add(1)
			outcomes[i] = keyOutcome{res: res, st: stateHit}
		} else if met, bound, ok := e.surrogateLookup(&k, items[i].MaxError); ok {
			outcomes[i] = keyOutcome{res: result{real: met}, st: stateSurrogate}
			if bounds == nil {
				bounds = make([]float64, len(items))
			}
			bounds[i] = bound
		} else {
			continue
		}
		if preResolved == nil {
			preResolved = make([]bool, len(items))
		}
		preResolved[i] = true
		keys[i] = Key{} // resolved; evalKeyBatch skips it
	}
	e.evalKeyBatch(ctx, keys, outcomes)
	for i := range items {
		if preResolved != nil && preResolved[i] {
			out[i] = BatchOutcome{Cache: outcomes[i].st, Metrics: outcomes[i].res.real}
			if bounds != nil {
				out[i].Bound = bounds[i]
			}
			continue
		}
		if keys[i].op == 0 {
			continue
		}
		o := outcomes[i]
		out[i] = BatchOutcome{Cache: o.st, Err: o.err}
		if o.err != nil {
			continue
		}
		if keys[i].op == opTolerance {
			out[i].Tolerance = ToleranceOutcome{
				Subsystem: keys[i].sub,
				Mode:      keys[i].mode,
				Tol:       o.res.tol,
				Real:      o.res.real,
				Ideal:     o.res.ideal,
			}
		} else {
			out[i].Metrics = o.res.real
		}
	}
	return nil
}

// SweepPoint is one evaluated point of a sweep: the paper's measures plus
// both tolerance indices at that knob setting.
type SweepPoint struct {
	Value      float64     `json:"value"`
	Metrics    MetricsBody `json:"metrics"`
	TolNetwork float64     `json:"tol_network"`
	TolMemory  float64     `json:"tol_memory"`
}

// Sweep evaluates tolerance indices over a knob range. The grid is routed
// over the batch path: per-point cache hits are extracted up front, and every
// remaining point (two tolerance keys each: network and memory) is solved as
// one lockstep batch on a single worker, so the kernel's continuation seeding
// walks the grid in order. Repeated sweeps hit the cache; under overload the
// batch is shed as a whole and the sweep fails fast.
func (e *Evaluator) Sweep(ctx context.Context, r SweepRequest) ([]SweepPoint, error) {
	knob, err := mms.ParseParam(r.Param)
	if err != nil {
		return nil, validate.Fieldf("serve.SweepRequest", "param", "= %q, want one of %s",
			r.Param, strings.Join(mms.ParamNames(), ", "))
	}
	if r.Steps < 1 || r.Steps > e.cfg.MaxSweepPoints {
		return nil, validate.Fieldf("serve.SweepRequest", "steps", "= %d, want in [1,%d]", r.Steps, e.cfg.MaxSweepPoints)
	}
	if math.IsNaN(r.From) || math.IsInf(r.From, 0) {
		return nil, validate.Fieldf("serve.SweepRequest", "from", "= %v, want finite", r.From)
	}
	if math.IsNaN(r.To) || math.IsInf(r.To, 0) {
		return nil, validate.Fieldf("serve.SweepRequest", "to", "= %v, want finite", r.To)
	}
	cfg, pat, geo, solver, err := r.components()
	if err != nil {
		return nil, err
	}
	// The base configuration is validated per point, after the knob is
	// applied: the base value of the swept field is irrelevant (it is
	// overwritten), and an out-of-range swept value is reported against the
	// point that produced it.
	values := knob.Grid(r.From, r.To, r.Steps)
	keys := make([]Key, 2*len(values))
	for i, v := range values {
		pcfg := cfg
		knob.Apply(&pcfg, v)
		if err := validateConfig(pcfg, pat); err != nil {
			return nil, err
		}
		keys[2*i] = canonicalKey(pcfg, pat, geo, solver, opTolerance, tolerance.Network, tolerance.ZeroRemote)
		keys[2*i+1] = canonicalKey(pcfg, pat, geo, solver, opTolerance, tolerance.Memory, tolerance.ZeroDelay)
	}
	out := make([]keyOutcome, len(keys))
	e.evalKeyBatch(ctx, keys, out)
	points := make([]SweepPoint, len(values))
	for i, v := range values {
		net, mem := out[2*i], out[2*i+1]
		if net.err != nil {
			return nil, net.err
		}
		if mem.err != nil {
			return nil, mem.err
		}
		points[i] = SweepPoint{
			Value:      v,
			Metrics:    metricsBody(net.res.real),
			TolNetwork: net.res.tol,
			TolMemory:  mem.res.tol,
		}
	}
	return points, nil
}
