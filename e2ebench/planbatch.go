package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	lattolclient "lattol/internal/client"
	"lattol/internal/mms"
	"lattol/internal/tolerance"
)

// pbSupplyRate bounds plan-batch throughput per measured second: it sizes
// the pre-generated request pool, which must outlast the run.
const pbSupplyRate = 1100

// warmBase offsets warm-up request indices so they never repeat a measured
// request.
const warmBase = 1 << 24

// sweepResponse is the wire body of POST /v1/sweep (the client library has
// no typed sweep call).
type sweepResponse struct {
	Param  string `json:"param"`
	Points []struct {
		Value      float64                  `json:"value"`
		Metrics    lattolclient.MetricsBody `json:"metrics"`
		TolNetwork float64                  `json:"tol_network"`
		TolMemory  float64                  `json:"tol_memory"`
	} `json:"points"`
}

// checkPlanBatch verifies one plan-batch answer: sampled batch items and
// sweep points against independent solves, and every plan by re-evaluating
// its knob against its target.
func checkPlanBatch(op pbOp, body []byte) error {
	switch op.kind {
	case pbBatch:
		var got lattolclient.BatchResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if len(got.Results) != len(op.items) {
			return fmt.Errorf("batch: %d results for %d items", len(got.Results), len(op.items))
		}
		for j := 0; j < len(op.items); j += 8 {
			r := got.Results[j]
			if r.Error != nil {
				return opFailed{fmt.Sprintf("batch item %d: HTTP %d: %s", j, r.Error.Status, r.Error.Message)}
			}
			var err error
			switch {
			case op.items[j].tol && r.Tolerance != nil:
				err = matchTolerance(op.items[j], *r.Tolerance)
			case !op.items[j].tol && r.Solve != nil:
				var want mms.Metrics
				if want, err = exactSolve(op.items[j].cfg); err == nil {
					err = matchExact(r.Solve.Metrics, want)
				}
			default:
				err = fmt.Errorf("result shape does not match the item's operation")
			}
			if err != nil {
				return fmt.Errorf("batch item %d: %w", j, err)
			}
		}
	case pbSweep:
		var got sweepResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if len(got.Points) != sweepSteps {
			return fmt.Errorf("sweep: %d points, want %d", len(got.Points), sweepSteps)
		}
		knob, err := mms.ParseParam(op.param)
		if err != nil {
			return err
		}
		for _, j := range []int{0, sweepSteps - 1} {
			p := got.Points[j]
			cfg := op.base
			knob.Apply(&cfg, p.Value)
			net := coldOp{cfg: cfg, tol: true, sub: tolerance.Network, mode: tolerance.ZeroRemote}
			idx, err := tolerance.Compute(cfg, net.sub, net.mode, mms.SolveOptions{})
			if err != nil {
				return fmt.Errorf("sweep point %d: reference: %w", j, err)
			}
			mem, err := tolerance.Compute(cfg, tolerance.Memory, tolerance.ZeroDelay, mms.SolveOptions{})
			if err != nil {
				return fmt.Errorf("sweep point %d: reference: %w", j, err)
			}
			if e := max(relErr(p.TolNetwork, idx.Tol), relErr(p.TolMemory, mem.Tol)); !(e <= goldenTol) {
				return fmt.Errorf("sweep point %d: tolerance indices off by %.3g", j, e)
			}
			if err := matchExact(p.Metrics, idx.Real); err != nil {
				return fmt.Errorf("sweep point %d: %w", j, err)
			}
		}
	case pbPlan:
		var got lattolclient.PlanResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		nt := got.Value
		if nt != math.Trunc(nt) || nt < 1 || nt > 16 {
			return fmt.Errorf("plan: knob nt = %v, want an integer in [1,16]", nt)
		}
		cfg := op.base
		cfg.Threads = int(nt)
		idx, err := tolerance.Compute(cfg, tolerance.Network, tolerance.ZeroRemote, mms.SolveOptions{})
		if err != nil {
			return fmt.Errorf("plan: re-evaluating nt=%v: %w", nt, err)
		}
		if idx.Tol < op.target*(1-goldenTol) {
			return fmt.Errorf("plan: nt=%v gives tol_network %.12g, below target %.12g", nt, idx.Tol, op.target)
		}
	}
	return nil
}

// planBatchPool pre-generates requests [base, base+n) of plan-batch.
func planBatchPool(seed int64, base, n int) ([]pbOp, []request, error) {
	ops := make([]pbOp, n)
	reqs := make([]request, n)
	for i := range ops {
		op, err := planBatchOp(seed, base+i)
		if err != nil {
			return nil, nil, err
		}
		ops[i], reqs[i] = op, op.req
		reqs[i].ref = i
	}
	return ops, reqs, nil
}

// runPlanBatch measures the batch, sweep and plan endpoints in a closed loop
// of nproc clients against one node; see README.md.
func runPlanBatch(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	S := time.Duration(o.seconds * float64(time.Second))
	warmDur := max(S/20, 300*time.Millisecond)
	measDur := S - warmDur
	_, warmReqs, err := planBatchPool(o.seed, warmBase, int(pbSupplyRate*warmDur.Seconds())+3)
	if err != nil {
		return nil, err
	}
	ops, reqs, err := planBatchPool(o.seed, 0, int(pbSupplyRate*measDur.Seconds())+3)
	if err != nil {
		return nil, err
	}

	sys, setups, err := bootSystems(o, 1, nil)
	defer removeStores(o)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	rep.timing("setup_s", median(setups), "s", len(setups))
	rep.details["setup_s_runs"] = setups

	entry := func(int) int { return 0 }
	workers := nproc()
	runClosed(ctx, workers, warmDur, len(warmReqs), sender(sys.clients, warmReqs, entry, func(int) bool { return false }, &recorder{}))

	before, err := scrapeAll(ctx, sys.nodes)
	if err != nil {
		return nil, err
	}
	if err := resetPeakRSS(sys.nodes); err != nil {
		return nil, err
	}
	cpu0, err := clusterStat(sys.nodes)
	if err != nil {
		return nil, err
	}
	rec := &recorder{}
	sample := func(i int) bool { return ops[i].kind == pbPlan || i%2 == 0 }
	host0 := readHostCPU()
	send := sender(sys.clients, reqs, entry, sample, rec)
	off := 0
	var peaks []float64 // the node's VmHWM in each slice, MB
	slices, lat, rate, err := runSlices("plan-batch", satSlices, func(int) (phaseResult, error) {
		r := runClosed(ctx, workers, measDur/satSlices, len(reqs)-off, func(ctx context.Context, i int) bool { return send(ctx, off+i) })
		off += r.attempted
		peak, err := takePeakRSS(sys.nodes)
		peaks = append(peaks, peak)
		return r, err
	}, nil)
	if err != nil {
		return nil, err
	}
	var res phaseResult
	for _, s := range slices {
		res.attempted += s.res.attempted
		res.failed += s.res.failed
	}
	rep.details["host_steal_share"] = stealShare(host0, readHostCPU())
	rep.details["closed_loop_slices"] = slices
	cpu1, err := clusterStat(sys.nodes)
	if err != nil {
		return nil, err
	}
	after, err := scrapeAll(ctx, sys.nodes)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if res.attempted >= len(reqs) {
		return nil, invalidf("plan-batch: the %d pre-generated requests ran out", len(reqs))
	}
	d := delta(before, after)
	if got := d.apiRequests(); got != res.attempted {
		rep.fail("plan-batch: daemon counted %d requests, generator attempted %d", got, res.attempted)
	}
	rep.attempted, rep.failed = res.attempted, res.failed

	completed := res.attempted - res.failed
	rep.timing("lat_p50_ms", lat.P50, "ms", lat.N)
	rep.timing("lat_p99_ms", lat.P99, "ms", lat.N)
	rep.timing("ops_per_s", rate, "1/s", lat.N)
	rep.timing("max_rate_rps", rate, "1/s", lat.N)
	rep.timing("cpu_us_per_op", float64(cpu1.cpu-cpu0.cpu)/float64(time.Microsecond)/float64(max(completed, 1)), "us", completed)
	rep.timing("peak_rss_mb", median(peaks), "MB", len(peaks))
	rep.details["peak_rss_mb_slices"] = peaks
	rep.details["metrics_delta"] = d.character()

	checked := 0
	for i, r := range rec.resp {
		if r.Status != http.StatusOK {
			continue
		}
		checked++
		rep.judge(fmt.Sprintf("plan-batch %s request %d", ops[i].kind, i), checkPlanBatch(ops[i], r.Body))
	}
	rep.details["answers_checked"] = checked
	return rep, nil
}
