package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	lattolclient "lattol/internal/client"
	"lattol/internal/mms"
	"lattol/internal/tolerance"
)

// coldSample is the share of cold answers checked (every coldSample-th):
// each check is a full reference solve.
const coldSample = 4

// checkColdOp verifies a served solve or tolerance answer for op against an
// independent in-process solve.
func checkColdOp(op coldOp, body []byte) error {
	if !op.tol {
		var got lattolclient.SolveResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		want, err := exactSolve(op.cfg)
		if err != nil {
			return fmt.Errorf("reference solve: %w", err)
		}
		return matchExact(got.Metrics, want)
	}
	var got lattolclient.ToleranceResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	return matchTolerance(op, got)
}

// matchTolerance compares a served tolerance answer with tolerance.Compute.
func matchTolerance(op coldOp, got lattolclient.ToleranceResponse) error {
	want, err := tolerance.Compute(op.cfg, op.sub, op.mode, mms.SolveOptions{})
	if err != nil {
		return fmt.Errorf("reference tolerance: %w", err)
	}
	if e := relErr(got.Tol, want.Tol); !(e <= goldenTol) {
		return fmt.Errorf("tol: served %.17g, computed %.17g (rel err %.3g)", got.Tol, want.Tol, e)
	}
	if err := matchExact(got.Real, want.Real); err != nil {
		return fmt.Errorf("real system: %w", err)
	}
	if err := matchExact(got.Ideal, want.Ideal); err != nil {
		return fmt.Errorf("ideal system: %w", err)
	}
	return nil
}

// runCold measures the cache-miss path of one node; see README.md.
func runCold(ctx context.Context, o options) (*report, error) {
	first := 0 // global index of the next fresh point
	return runOpenWorkload(ctx, o, openSpec{
		name:    "cold",
		nodes:   1,
		rate:    coldRate,
		satRate: 12000,
		limitMs: coldLimitMs,
		requests: func(phase int, rate float64, dur time.Duration) schedule {
			s, _ := coldSchedule(o.seed, phase, first, rate, dur)
			first += len(s.req)
			return s
		},
		entry:  func(request) int { return 0 },
		sample: func(i int) bool { return i%coldSample == 0 },
		check: func(_ int, req request, res *lattolclient.RawResponse) error {
			return checkColdOp(freshOp(rngFor(o.seed, streamCold, req.ref), 24), res.Body)
		},
		character: func(rep *report, phase string, d metricsDelta, attempted int) {
			if n := d["lattold_cache_hits_total"] + d["lattold_cache_coalesced_total"]; n != 0 {
				rep.fail("cold %s: %v cache hits, want none (every point is fresh)", phase, n)
			}
			if n := d["lattold_solves_total"]; int(n) != attempted {
				rep.fail("cold %s: %v solves for %d requests, want one each", phase, n, attempted)
			}
		},
	})
}
