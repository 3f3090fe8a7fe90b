package replicate

import (
	"context"
	"reflect"
	"testing"

	"lattol/internal/eval"
	"lattol/internal/simmms"
)

func testEvalOpts() Options {
	return Options{Sim: testSimOpts(simmms.Direct), MinReps: 4, Workers: 2}
}

// TestEvaluatorPure: a fresh Evaluator reproduces another's answers bit for
// bit — the property CheckPlanOn's fresh-forward-solve certification rests
// on.
func TestEvaluatorPure(t *testing.T) {
	ctx := context.Background()
	cfg := eval.Config{Model: testConfig()}
	opts := eval.Options{TolNetwork: true, TolMemory: true}
	a, err := NewEvaluator(testEvalOpts()).Evaluate(ctx, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEvaluator(testEvalOpts()).Evaluate(ctx, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("fresh evaluator disagrees:\n got %+v\nwant %+v", b, a)
	}
	if a.TolNetwork <= 0 || a.TolNetwork > 1.2 {
		t.Errorf("TolNetwork %v outside plausible range", a.TolNetwork)
	}
	if a.TolMemory <= 0 || a.TolMemory > 1.2 {
		t.Errorf("TolMemory %v outside plausible range", a.TolMemory)
	}
	if a.Solves <= 0 {
		t.Errorf("Solves %d, want > 0 (replication accounting)", a.Solves)
	}
}

// TestEvaluatorSeparatesConfigs: different operating points get different
// seed coordinates, hence (almost surely) different noise.
func TestEvaluatorSeparatesConfigs(t *testing.T) {
	ctx := context.Background()
	ev := NewEvaluator(testEvalOpts())
	a, err := ev.Evaluate(ctx, eval.Config{Model: testConfig()}, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := testConfig()
	cfg2.Threads = 3
	b, err := ev.Evaluate(ctx, eval.Config{Model: cfg2}, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Up == b.Up {
		t.Errorf("distinct configs produced identical Up %v", a.Up)
	}
	if b.Up <= a.Up {
		t.Errorf("more threads lowered utilization: nt=2 %v, nt=3 %v", a.Up, b.Up)
	}
}

// TestEvaluatorMemoizesIdeal: two configurations differing only in PRemote
// share the ZeroRemote ideal system; it must be simulated once.
func TestEvaluatorMemoizesIdeal(t *testing.T) {
	ctx := context.Background()
	ev := NewEvaluator(testEvalOpts())
	cfgA := testConfig()
	cfgB := testConfig()
	cfgB.PRemote = 0.4
	for _, c := range []eval.Config{{Model: cfgA}, {Model: cfgB}} {
		if _, err := ev.Evaluate(ctx, c, eval.Options{TolNetwork: true}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(ev.ideal); got != 1 {
		t.Errorf("ideal memo holds %d entries, want 1 (shared ZeroRemote ideal)", got)
	}
}

// TestEvaluatorBatchMatchesScalar: the positional batch path must agree with
// element-wise Evaluate on a fresh evaluator.
func TestEvaluatorBatchMatchesScalar(t *testing.T) {
	ctx := context.Background()
	cfgs := []eval.Config{{Model: testConfig()}}
	cfg2 := testConfig()
	cfg2.Runlength = 20
	cfgs = append(cfgs, eval.Config{Model: cfg2})
	opts := eval.Options{TolNetwork: true}

	out := make([]eval.Outcome, len(cfgs))
	NewEvaluator(testEvalOpts()).EvaluateBatch(ctx, cfgs, opts, out)
	for i, cfg := range cfgs {
		want, err := NewEvaluator(testEvalOpts()).Evaluate(ctx, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if out[i].Err != nil {
			t.Fatalf("batch element %d: %v", i, out[i].Err)
		}
		if !reflect.DeepEqual(out[i].Metrics, want) {
			t.Errorf("batch element %d:\n got %+v\nwant %+v", i, out[i].Metrics, want)
		}
	}
}

// TestEvaluatorMaxErrorTightens: Options.MaxError below the configured
// precision must tighten the replication target.
func TestEvaluatorMaxErrorTightens(t *testing.T) {
	ctx := context.Background()
	o := testEvalOpts()
	o.MinReps = 2
	o.MaxReps = 32
	o.Precision = 0.5 // loose: 2 reps suffice
	loose, err := NewEvaluator(o).Evaluate(ctx, eval.Config{Model: testConfig()}, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := NewEvaluator(o).Evaluate(ctx, eval.Config{Model: testConfig()}, eval.Options{MaxError: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Solves <= loose.Solves {
		t.Errorf("MaxError 0.05 ran %d reps, loose target ran %d — want more", tight.Solves, loose.Solves)
	}
	if tight.Bound > 0.05 && tight.Solves < 32 {
		t.Errorf("Bound %v > MaxError without exhausting MaxReps", tight.Bound)
	}
}

// TestEvaluatorDefaultsIgnoreWorkers: with default options apart from the
// worker count, adaptive estimates must not depend on the machine's core
// count — the default round size is a constant, not the pool size.
func TestEvaluatorDefaultsIgnoreWorkers(t *testing.T) {
	ctx := context.Background()
	cfg := eval.Config{Model: testConfig()}
	run := func(workers int) eval.Metrics {
		t.Helper()
		opts := Options{Sim: testSimOpts(simmms.Direct), Precision: 0.025, Workers: workers}
		m, err := NewEvaluator(opts).Evaluate(ctx, cfg, eval.Options{TolNetwork: true})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	one, four := run(1), run(4)
	if !reflect.DeepEqual(one, four) {
		t.Errorf("Workers 1 and 4 disagree under default options:\n  1: %+v\n  4: %+v", one, four)
	}
	if one.Solves <= 2*8 {
		t.Errorf("Solves = %d: the precision target never forced an adaptive round", one.Solves)
	}
}
