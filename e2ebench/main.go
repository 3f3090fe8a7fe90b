// Command e2ebench is lattol's end-to-end benchmark. It drives the real
// lattold binary (and, for the offline workload, the replication library)
// with seeded workloads, checks the answers it samples against independent
// in-process solves, and prints the end-to-end metrics — or, with --trace 1,
// a per-layer budget from an in-process traced replay of the same requests.
//
// Run it from the repository root through its wrapper, which builds both
// binaries first:
//
//	bash e2ebench/run.sh --workload hot --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A result file with the
// environment, per-phase details and /metrics deltas is written under
// .bench_build/results. See e2ebench/README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	samples   map[string]int // sample count behind each timing
	details   map[string]any
}

func newReport() *report {
	return &report{correct: true, metrics: map[string]metric{}, samples: map[string]int{}, details: map[string]any{}}
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// timing sets a timing metric together with the number of samples it rests on.
func (r *report) timing(name string, v float64, unit string, n int) {
	r.set(name, v, unit)
	r.samples[name] = n
}

// fail records a correctness or workload-character violation: the run still
// reports, with correct=false.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "e2ebench: CHECK FAILED:", msg)
	v, _ := r.details["violations"].([]string)
	r.details["violations"] = append(v, msg)
}

// opFailed is a check outcome for an operation the program answered with an
// error (a batch item's positional error): it counts as failed, like a
// refused request, but is not a wrong answer.
type opFailed struct{ msg string }

func (e opFailed) Error() string { return e.msg }

// judge records one check outcome: nil passes; an opFailed counts a failed
// operation; anything else is a wrong answer, which also makes the run
// incorrect.
func (r *report) judge(what string, err error) {
	if err == nil {
		return
	}
	r.failed++
	var of opFailed
	if errors.As(err, &of) {
		msg := fmt.Sprintf("%s: %v", what, err)
		fmt.Fprintln(os.Stderr, "e2ebench: FAILED OPERATION:", msg)
		v, _ := r.details["failed_operations"].([]string)
		r.details["failed_operations"] = append(v, msg)
		return
	}
	r.fail("%s: %v", what, err)
}

func (r *report) failRatio() float64 { return float64(r.failed) / float64(max(r.attempted, 1)) }

// errInvalid marks a run whose measurement cannot be trusted (the generator
// was the bottleneck, or a phase held too few samples). Such a run prints
// no result.
var errInvalid = errors.New("invalid run")

func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errInvalid, fmt.Sprintf(format, args...))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	lattold  string
	work     string // scratch directory for stores and results
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: hot, cold, plan-batch or replicate")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced in-process run reporting per-layer metrics")
	flag.StringVar(&o.lattold, "lattold", ".bench_build/lattold", "lattold binary")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for stores and result files")
	flag.Parse()
	o.trace = trace == 1
	// The generator shares the host with the daemons: collecting its
	// garbage less often keeps its pauses out of the latencies it times.
	debug.SetGCPercent(400)
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	if o.seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	run, ok := map[string]func(context.Context, options) (*report, error){
		"hot":        runHot,
		"cold":       runCold,
		"plan-batch": runPlanBatch,
		"replicate":  runReplicate,
	}[o.workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want hot, cold, plan-batch or replicate)", o.workload))
	}
	if o.trace {
		run = func(ctx context.Context, o options) (*report, error) { return runTraced(ctx, o) }
	}
	rep, err := run(ctx, o)
	if errors.Is(err, errInvalid) && ctx.Err() == nil {
		// One retry: a host stall can starve the generator once.
		fmt.Fprintln(os.Stderr, "e2ebench:", err, "- measuring again")
		rep, err = run(ctx, o)
	}
	if err != nil {
		fatal(err)
	}
	if err := writeResult(o, rep); err != nil {
		fatal(err)
	}
	printMetrics(rep)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}

// printMetrics writes the human-readable metric table (standard output,
// before the JSON line).
func printMetrics(rep *report) {
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		if k, ok := rep.samples[n]; ok {
			fmt.Printf("%-28s %14.6g %-6s (%d samples)\n", n, m.Value, m.Unit, k)
		} else {
			fmt.Printf("%-28s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}
	fmt.Printf("%-28s %14d\n%-28s %14d\n", "attempted", rep.attempted, "failed", rep.failed)
	fmt.Printf("%-28s %14.6g (failed + refused + wrong, over attempted)\n", "fail_ratio", rep.failRatio())
}

// environment records what a result was measured on.
func environment(o options) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpu,
		"go_version": runtime.Version(),
		"commit":     commit(),
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"settings": map[string]any{
			"hot_rate_rps": hotRate, "hot_limit_ms": hotLimitMs, "hot_max_error": hotMaxError,
			"cold_rate_rps": coldRate, "cold_limit_ms": coldLimitMs,
			"batch_items": batchItems, "sweep_steps": sweepSteps,
			"rep_precision": repPrecision, "rep_warmup": repWarmup, "rep_duration": repDuration,
		},
	}
}

// commit names the checked-out revision when the tree is a git checkout.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return ref
}

// writeResult writes the run's full record under <work>/results.
func writeResult(o options, rep *report) error {
	dir := filepath.Join(o.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := map[string]any{
		"environment": environment(o),
		"correct":     rep.correct,
		"attempted":   rep.attempted,
		"failed":      rep.failed,
		"fail_ratio":  rep.failRatio(),
		"metrics":     rep.metrics,
		"samples":     rep.samples,
		"details":     rep.details,
		"finished":    time.Now().UTC().Format(time.RFC3339),
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, btoi(o.trace))
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
