package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"syscall"
	"time"

	"lattol/internal/eval"
	"lattol/internal/mms"
	"lattol/internal/replicate"
	"lattol/internal/simmms"
)

// repSetups is how many evaluators the replicate set-up builds; the median
// is setup_s.
const repSetups = 7

// repChecks is how many evaluations are replayed on a 1-worker evaluator
// and compared bit for bit.
const repChecks = 40

// repOptions is the replication configuration of the workload at a given
// worker count; nothing else differs between the measured and the
// reference evaluator. Round is pinned to nproc — the default the measured
// nproc-worker evaluator would take anyway — because an adaptive run's
// stopping point depends on the round size, and the default round size is
// the worker count: left at its default, a 1-worker evaluator stops at
// different replication counts and its estimates differ (runReplicate
// records how often, as a known defect).
func repOptions(seed int64, workers int) replicate.Options {
	return replicate.Options{
		Sim:       simmms.Options{Seed: seed, Warmup: repWarmup, Duration: repDuration},
		MinReps:   repMinReps,
		MaxReps:   repMaxReps,
		Round:     nproc(),
		Precision: repPrecision,
		Workers:   workers,
	}
}

func evalQuery(ctx context.Context, ev *replicate.Evaluator, q repQuery) (eval.Metrics, error) {
	return ev.Evaluate(ctx, eval.Config{Model: q.cfg}, eval.Options{TolNetwork: q.tol})
}

// newRepEvaluator builds the measured evaluator and takes its first answer
// (a fixed Table 1 point): the replicate workload's set-up.
func newRepEvaluator(ctx context.Context, seed int64, workers int) (*replicate.Evaluator, error) {
	ev := replicate.NewEvaluator(repOptions(seed, workers))
	_, err := evalQuery(ctx, ev, repQuery{cfg: mms.DefaultConfig()})
	return ev, err
}

// sameBits reports whether two evaluations are bit-identical.
func sameBits(a, b eval.Metrics) bool {
	ma, mb := metricFields(a.Metrics), metricFields(b.Metrics)
	fa := append(ma[:], a.TolNetwork, a.TolMemory, a.Bound)
	fb := append(mb[:], b.TolNetwork, b.TolMemory, b.Bound)
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Solves == b.Solves && a.Iterations == b.Iterations
}

// selfCPU is the process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runReplicate measures replicated-simulation evaluations offline, the path
// `lattolplan -backend sim` takes; see README.md.
func runReplicate(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	var setups []float64
	var ev *replicate.Evaluator
	for i := 0; i < repSetups; i++ {
		t0 := time.Now()
		var err error
		if ev, err = newRepEvaluator(ctx, o.seed, nproc()); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.timing("setup_s", median(setups), "s", len(setups))
	rep.details["setup_s_runs"] = setups

	// The evaluations run in slices, like the HTTP workloads' closed loops,
	// and the latencies and rate come from the slices the hypervisor stole
	// little from: the evaluations compete for the same vCPUs.
	S := time.Duration(o.seconds * float64(time.Second))
	var results []eval.Metrics
	cpu0 := selfCPU()
	host0 := readHostCPU()
	slices, sum, rate, err := runSlices("replicate", satSlices, func(int) (phaseResult, error) {
		var r phaseResult
		start := time.Now()
		for time.Since(start) < S/satSlices && ctx.Err() == nil {
			i := len(results)
			t0 := time.Now()
			m, err := evalQuery(ctx, ev, replicateQuery(o.seed, i))
			r.attempted++
			if err != nil {
				r.failed++
				rep.fail("replicate query %d: %v", i, err)
			} else {
				r.lat = append(r.lat, ms(time.Since(t0)))
			}
			results = append(results, m)
		}
		r.elapsed = time.Since(start)
		return r, ctx.Err()
	}, nil)
	cpu := selfCPU() - cpu0
	if err != nil {
		return nil, err
	}
	rep.details["host_steal_share"] = stealShare(host0, readHostCPU())
	rep.details["slices"] = slices
	for _, s := range slices {
		rep.attempted += s.res.attempted
		rep.failed += s.res.failed
	}
	completed := rep.attempted - rep.failed
	rep.timing("lat_p50_ms", sum.P50, "ms", sum.N)
	rep.timing("lat_p99_ms", sum.P99, "ms", sum.N)
	rep.timing("ops_per_s", rate, "1/s", sum.N)
	rep.timing("max_rate_rps", rate, "1/s", sum.N)
	rep.timing("cpu_us_per_op", float64(cpu)/float64(time.Microsecond)/float64(max(completed, 1)), "us", completed)
	ps, err := readProcStat(os.Getpid())
	if err != nil {
		return nil, err
	}
	rep.set("peak_rss_mb", ps.hwmKB/1024, "MB")
	rep.details["latency"] = sum
	reps := 0
	for _, m := range results {
		reps += m.Solves
	}
	rep.details["reps_per_eval"] = float64(reps) / float64(max(len(results), 1))

	// Worker-count invariance: a 1-worker evaluator must reproduce sampled
	// evaluations bit for bit.
	seq := replicate.NewEvaluator(repOptions(o.seed, 1))
	step := max(len(results)/repChecks, 1)
	checked := 0
	for i := 0; i < len(results); i += step {
		m, err := evalQuery(ctx, seq, replicateQuery(o.seed, i))
		checked++
		if err != nil || !sameBits(m, results[i]) {
			rep.failed++
			rep.fail("replicate query %d: 1-worker estimate differs from the %d-worker one (err %v)", i, nproc(), err)
		}
	}
	rep.details["answers_checked"] = checked

	// The same evaluations on a 1-worker evaluator with the round size left
	// at its default, as `lattolplan -backend sim` leaves it. Adaptive
	// stopping depends on the round size, whose default is the worker
	// count, so these are expected to differ: a known defect of the
	// program, recorded on every run (in the result file and on standard
	// error) but not counted against the run, which the pinned check above
	// already judges.
	defOpts := repOptions(o.seed, 1)
	defOpts.Round = 0
	def := replicate.NewEvaluator(defOpts)
	differ := 0
	for i := 0; i < len(results); i += step {
		m, err := evalQuery(ctx, def, replicateQuery(o.seed, i))
		if err != nil || !sameBits(m, results[i]) {
			differ++
		}
	}
	if differ > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: KNOWN DEFECT: with the default round size, %d of %d sampled estimates differ between 1 and %d workers\n", differ, checked, nproc())
	}
	rep.details["known_defects"] = map[string]any{
		"default_round_worker_count_dependence": map[string]int{"checked": checked, "differ": differ},
	}
	return rep, nil
}
