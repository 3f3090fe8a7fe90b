package mms

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lattol/internal/validate"
)

// batchCompareMetrics asserts two metric sets agree within relTol on every
// measure (|a-b| / max(|a|,|b|,1)).
func batchCompareMetrics(t *testing.T, label string, got, want Metrics, relTol float64) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"Up", got.Up, want.Up},
		{"LambdaProc", got.LambdaProc, want.LambdaProc},
		{"LambdaNet", got.LambdaNet, want.LambdaNet},
		{"SObs", got.SObs, want.SObs},
		{"LObs", got.LObs, want.LObs},
		{"CycleTime", got.CycleTime, want.CycleTime},
		{"MemUtilization", got.MemUtilization, want.MemUtilization},
		{"OutUtilization", got.OutUtilization, want.OutUtilization},
		{"InUtilization", got.InUtilization, want.InUtilization},
	} {
		scale := math.Max(math.Max(math.Abs(c.got), math.Abs(c.want)), 1)
		if math.Abs(c.got-c.want)/scale > relTol {
			t.Errorf("%s: %s = %v, want %v (rel %g)", label, c.name, c.got, c.want,
				math.Abs(c.got-c.want)/scale)
		}
	}
}

// TestSolveBatchMatchesSolve pins SolveBatch to item-by-item Model.Solve over
// a mixed batch: two station shapes (K=2 and K=4), varying thread counts and
// remote fractions, a multiported point, and scalar-fallback items (FullAMVA
// and ExactMVA). Both sides iterate to a 1e-12 residual and must agree at
// 1e-9.
func TestSolveBatchMatchesSolve(t *testing.T) {
	mk := func(k, nt int, p float64) Config {
		cfg := DefaultConfig()
		cfg.K = k
		cfg.Threads = nt
		cfg.PRemote = p
		return cfg
	}
	multi := mk(4, 6, 0.5)
	multi.MemoryPorts = 2
	multi.SwitchPorts = 2
	items := []BatchItem{
		{Config: mk(4, 8, 0.2)},
		{Config: mk(2, 3, 0.4)},
		{Config: mk(4, 1, 0.05)},
		{Config: mk(2, 1, 0.9), Solver: ExactMVA},
		{Config: mk(4, 10, 0.7)},
		{Config: mk(2, 5, 0.2), Solver: FullAMVA},
		{Config: multi},
		{Config: mk(4, 8, 0)}, // no remote accesses at all
	}
	opts := SolveOptions{Tolerance: 1e-12}
	results := SolveBatch(items, opts)
	if len(results) != len(items) {
		t.Fatalf("results = %d, want %d", len(results), len(items))
	}
	for i, it := range items {
		if results[i].Err != nil {
			t.Fatalf("item %d: %v", i, results[i].Err)
		}
		model, err := Build(it.Config)
		if err != nil {
			t.Fatal(err)
		}
		want, err := model.Solve(SolveOptions{Solver: it.Solver, Tolerance: 1e-12})
		if err != nil {
			t.Fatalf("scalar item %d: %v", i, err)
		}
		batchCompareMetrics(t, "item", results[i].Metrics, want, 1e-9)
		if it.Solver != ExactMVA && results[i].Metrics.Iterations <= 0 {
			t.Errorf("item %d: Iterations = %d, want > 0", i, results[i].Metrics.Iterations)
		}
	}
}

// TestSolveBatchPositionalErrors mixes an invalid configuration and a
// zero-thread point into a healthy batch: errors land on their own index and
// nowhere else.
func TestSolveBatchPositionalErrors(t *testing.T) {
	bad := DefaultConfig()
	bad.K = -1
	zero := DefaultConfig()
	zero.Threads = 0
	items := []BatchItem{
		{Config: DefaultConfig()},
		{Config: bad},
		{Config: zero},
		{Config: DefaultConfig(), Solver: Solver(99)},
		{Config: DefaultConfig()},
	}
	results := SolveBatch(items, SolveOptions{})
	if results[0].Err != nil || results[4].Err != nil {
		t.Errorf("healthy items failed: [0]=%v [4]=%v", results[0].Err, results[4].Err)
	}
	if validate.Field(results[1].Err) != "K" {
		t.Errorf("invalid config: field = %q (err %v), want K", validate.Field(results[1].Err), results[1].Err)
	}
	if results[2].Err != nil || results[2].Metrics != (Metrics{}) {
		t.Errorf("zero threads: metrics %+v err %v, want zero metrics and nil", results[2].Metrics, results[2].Err)
	}
	if validate.Field(results[3].Err) != "Solver" {
		t.Errorf("bad solver: field = %q (err %v), want Solver", validate.Field(results[3].Err), results[3].Err)
	}
	if results[0].Metrics.Up <= 0 || results[4].Metrics.Up <= 0 {
		t.Errorf("healthy U_p = %v, %v, want > 0", results[0].Metrics.Up, results[4].Metrics.Up)
	}
}

// TestSolveBatchIntoAllocates0 pins the steady-state contract: with prebuilt
// models, a reused workspace and caller-provided result storage, a batch
// solve allocates nothing.
func TestSolveBatchIntoAllocates0(t *testing.T) {
	items := make([]BatchItem, 12)
	for i := range items {
		cfg := DefaultConfig()
		cfg.Threads = 1 + i
		model, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = BatchItem{Model: model}
	}
	ws := new(Workspace)
	dst := make([]BatchResult, len(items))
	opts := SolveOptions{Workspace: ws}
	SolveBatchInto(dst, items, opts)
	allocs := testing.AllocsPerRun(50, func() {
		SolveBatchInto(dst, items, opts)
		if dst[0].Err != nil {
			t.Fatal(dst[0].Err)
		}
	})
	if allocs != 0 {
		t.Errorf("batch solve allocates %v allocs/op, want 0", allocs)
	}
}

// TestSolveBatchIntoLengthMismatch documents the misuse panic.
func TestSolveBatchIntoLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on dst/items length mismatch")
		}
	}()
	SolveBatchInto(make([]BatchResult, 1), make([]BatchItem, 2), SolveOptions{})
}

// plainRows is the reference for the kernel's fixed point and iteration
// count: the unaccelerated Bard–Schweitzer iteration on m's merged class-0
// rows (processor, then the memory, outbound and inbound rows, each weighted
// by its station count), started from seed (nil: the uniform spread over
// visited stations). It returns the throughput, the final rows and the
// number of sweeps, or ok = false when maxIter sweeps do not converge.
func plainRows(m *Model, seed []float64, tol float64, maxIter int) (lambda float64, q []float64, iters int, ok bool) {
	cfg := m.cfg
	e, s, srv, mu := []float64{1}, []float64{cfg.processorService()}, []float64{1}, []float64{1}
	group := []int{0}
	roleS := [3]float64{cfg.MemoryTime, cfg.SwitchTime, cfg.SwitchTime}
	roleSrv := [3]float64{float64(cfg.memoryPorts()), float64(cfg.switchPorts()), float64(cfg.switchPorts())}
	for r := 0; r < 3; r++ {
		for k, v := range m.mergeVals[r] {
			e, s, srv = append(e, v), append(s, roleS[r]), append(srv, roleSrv[r])
			mu, group = append(mu, m.mergeCounts[r][k]), append(group, r+1)
		}
	}
	pop := float64(cfg.Threads)
	q = make([]float64, len(e))
	if seed != nil {
		copy(q, seed)
	} else {
		visited := 0.0
		for i := range e {
			if e[i] > 0 {
				visited += mu[i]
			}
		}
		for i := range e {
			if e[i] > 0 {
				q[i] = pop / visited
			}
		}
	}
	w := make([]float64, len(e))
	for iters = 1; iters <= maxIter; iters++ {
		var tot [4]float64
		for i := range q {
			tot[group[i]] += mu[i] * q[i]
		}
		cycle := 0.0
		for i := range q {
			w[i] = s[i]/srv[i]*(tot[group[i]]-q[i]/pop) + s[i]
			cycle += e[i] * mu[i] * w[i]
		}
		lambda = pop / cycle
		delta := 0.0
		for i := range q {
			next := lambda * e[i] * w[i]
			delta = math.Max(delta, math.Abs(next-q[i]))
			q[i] = next
		}
		if delta < tol {
			return lambda, q, iters, true
		}
	}
	return lambda, q, maxIter, false
}

// stallPair is the operating point whose memory zero-delay ideal stalled
// the unguarded lockstep Aitken step: the lane sat at a max delta of 0.00376
// for the whole 200000-sweep budget while the plain iteration converges in
// 85 sweeps.
func stallPair() (real, ideal Config) {
	real = DefaultConfig()
	real.K = 16
	real.Threads = 10
	real.Runlength = 24.91333090731122
	real.PRemote = 0.2087136911140977
	real.Psw = 0.7924705901589124
	real.MemoryTime, real.SwitchTime = 10, 10
	ideal = real
	ideal.MemoryTime = 0
	return real, ideal
}

// stallSlack bounds how many more sweeps an accelerated lane may take than
// the plain iteration from the same seed: the guard gives up extrapolating
// at the first cycle that does not improve.
const stallSlack = 8

// checkAgainstPlain asserts a batch result converged to the plain
// iteration's fixed point in at most stallSlack more sweeps.
func checkAgainstPlain(t *testing.T, label string, got BatchResult, model *Model, seed []float64) {
	t.Helper()
	if got.Err != nil {
		t.Fatalf("%s: %v", label, got.Err)
	}
	lambda, _, iters, ok := plainRows(model, seed, 1e-10, DefaultMaxIterations)
	if !ok {
		t.Fatalf("%s: plain reference did not converge", label)
	}
	if d := math.Abs(got.Metrics.LambdaProc-lambda) / lambda; d > 1e-9 {
		t.Errorf("%s: λ = %v, plain %v (rel %g)", label, got.Metrics.LambdaProc, lambda, d)
	}
	if got.Metrics.Iterations > iters+stallSlack {
		t.Errorf("%s: %d sweeps, plain iteration %d", label, got.Metrics.Iterations, iters)
	}
}

// TestStallRealIdealBatch solves the stalling [real, ideal] pair as one
// batch, on a fresh workspace (the ideal lane seeded from the real lane's
// pilot solve) and warm-seeded from a previous solve of the real system.
// The budget is capped so a stall fails fast.
func TestStallRealIdealBatch(t *testing.T) {
	real, ideal := stallPair()
	idealModel, err := Build(ideal)
	if err != nil {
		t.Fatal(err)
	}
	realModel, err := Build(real)
	if err != nil {
		t.Fatal(err)
	}
	_, realRows, _, _ := plainRows(realModel, nil, 1e-10, DefaultMaxIterations)
	opts := SolveOptions{MaxIterations: 5000}
	items := []BatchItem{{Config: real}, {Config: ideal}}

	opts.Workspace = new(Workspace)
	res := SolveBatch(items, opts)
	checkAgainstPlain(t, "fresh real", res[0], realModel, nil)
	checkAgainstPlain(t, "fresh ideal", res[1], idealModel, realRows)

	opts.Workspace = new(Workspace)
	SolveBatch(items[:1], opts)
	res = SolveBatch(items, opts)
	checkAgainstPlain(t, "warm ideal", res[1], idealModel, realRows)

	// The one-lane path: Model.Solve warm-started from the real system.
	ws := new(Workspace)
	if _, err := realModel.Solve(SolveOptions{Workspace: ws}); err != nil {
		t.Fatal(err)
	}
	met, err := idealModel.Solve(SolveOptions{Workspace: ws, WarmStart: true, MaxIterations: 5000})
	checkAgainstPlain(t, "warm Model.Solve ideal", BatchResult{Metrics: met, Err: err}, idealModel, realRows)
}

// TestStallPlanProbe replays the continuation chain of an inverse plan over
// n_t on a 3×3 torus (conformance plan trial 22, seed 1): each probe is
// warm-started from the previous one, and the probe at n_t = 262 stalled the
// unguarded kernel.
func TestStallPlanProbe(t *testing.T) {
	base := Config{K: 3, Runlength: 8.76883659885128, MemoryTime: 9.319930398174666,
		SwitchTime: 2.862123160064671, PRemote: 0.19765654443546032, Psw: 0.6320301951794056}
	ws := new(Workspace)
	var prev []float64
	for _, nt := range []int{16384, 6, 8195, 4101, 2054, 1030, 518, 262, 134, 70} {
		cfg := base
		cfg.Threads = nt
		model, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		met, err := model.Solve(SolveOptions{Workspace: ws, WarmStart: true, MaxIterations: 5000})
		checkAgainstPlain(t, fmt.Sprintf("probe n_t=%d", nt), BatchResult{Metrics: met, Err: err}, model, prev)
		_, prev, _, _ = plainRows(model, prev, 1e-10, DefaultMaxIterations)
	}
}

// TestAcceleratedNeverWorseThanPlain is the seeded property behind the stall
// guard: a lane warm-seeded from a neighbouring operating point (one knob
// moved, the memory zero-delay ideal among them) converges whenever the
// plain iteration does, to the same fixed point at 1e-9, in at most
// stallSlack more sweeps than plain.
func TestAcceleratedNeverWorseThanPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ws := new(Workspace)
	for trial := 0; trial < 150; trial++ {
		prev := Config{
			K:          2 + rng.Intn(11),
			Threads:    1 + rng.Intn(40),
			Runlength:  1 + 40*rng.Float64(),
			MemoryTime: 40 * rng.Float64(),
			SwitchTime: 1 + 20*rng.Float64(),
			PRemote:    0.01 + 0.98*rng.Float64(),
			Psw:        0.05 + 0.95*rng.Float64(),
		}
		next := prev
		switch rng.Intn(4) {
		case 0:
			next.MemoryTime = 0
		case 1:
			next.Threads = 1 + rng.Intn(80)
		case 2:
			next.Runlength *= 0.5 + rng.Float64()
		default:
			next.SwitchTime *= 0.5 + rng.Float64()
		}
		prevModel, err := Build(prev)
		if err != nil {
			t.Fatal(err)
		}
		nextModel, err := Build(next)
		if err != nil {
			t.Fatal(err)
		}
		_, seed, _, ok := plainRows(prevModel, nil, 1e-10, DefaultMaxIterations)
		if !ok {
			continue
		}
		if _, _, _, ok := plainRows(nextModel, seed, 1e-10, DefaultMaxIterations); !ok {
			continue
		}
		opts := SolveOptions{Workspace: ws, MaxIterations: 20000}
		if res := SolveBatch([]BatchItem{{Model: prevModel}}, opts); res[0].Err != nil {
			t.Fatalf("trial %d: seed solve %+v: %v", trial, prev, res[0].Err)
		}
		res := SolveBatch([]BatchItem{{Model: nextModel}}, opts)
		checkAgainstPlain(t, "trial", res[0], nextModel, seed)
		if t.Failed() {
			t.Fatalf("trial %d: %+v seeded from %+v", trial, next, prev)
		}
	}
}
