package fixpoint

import (
	"math"
	"testing"
)

// affine is the contraction G(x) = c + A·(x − c) on R², fixed point c.
type affine struct {
	a [2][2]float64
	c [2]float64
}

// rotation returns the contraction ρ·R(θ) about c: a complex eigenvalue pair
// ρ·e^{±iθ}, so the plain iteration spirals in at rate ρ per step.
func rotation(rho, theta float64, c [2]float64) affine {
	cs, sn := math.Cos(theta), math.Sin(theta)
	return affine{a: [2][2]float64{{rho * cs, -rho * sn}, {rho * sn, rho * cs}}, c: c}
}

func (f affine) eval(x, g []float64) {
	d0, d1 := x[0]-f.c[0], x[1]-f.c[1]
	g[0] = f.c[0] + f.a[0][0]*d0 + f.a[0][1]*d1
	g[1] = f.c[1] + f.a[1][0]*d0 + f.a[1][1]*d1
}

// solve runs the iteration the way the AMVA solver drives an Accelerator:
// evaluate g = G(x), stop on the raw residual (publishing g), otherwise let
// the accelerator choose the next x. It returns the iterate and the number
// of map evaluations, or ok = false when maxIter evaluations do not
// converge.
func solve(acc *Accelerator, scheme Scheme, f affine, x0, upper []float64, tol float64, maxIter int) (x []float64, iters int, ok bool) {
	x = append([]float64(nil), x0...)
	g := make([]float64, len(x))
	acc.Reset(scheme, 0, len(x))
	for iters = 1; iters <= maxIter; iters++ {
		f.eval(x, g)
		delta := 0.0
		for i := range x {
			delta = math.Max(delta, math.Abs(g[i]-x[i]))
		}
		if delta < tol {
			copy(x, g)
			return x, iters, true
		}
		acc.Advance(x, g, upper)
	}
	return x, maxIter, false
}

// checkFixed asserts x is f's fixed point to 1e-9 (a 1e-12 residual bounds
// the error by 1e-12/(1−ρ) for contraction rate ρ ≤ 0.99).
func checkFixed(t *testing.T, x []float64, f affine) {
	t.Helper()
	for i := range x {
		if d := math.Abs(x[i] - f.c[i]); d > 1e-9 {
			t.Errorf("x[%d] = %v, fixed point %v (diff %g)", i, x[i], f.c[i], d)
		}
	}
}

// TestAitkenStallGuard drives a rotation contraction on which the unguarded
// Irons–Tuck step cycles: μ = ⟨r₁,r₂⟩/⟨r₁,r₁⟩ = ρ·cos θ is real while the
// eigenvalues are complex, so every extrapolation multiplies the error by
// |(1+f)ρe^{iθ} − f|·ρ ≈ 5.3 (f = μ/(1−μ)) and the feasibility box only
// throws the iterate back to where the next extrapolation starts again. The
// guard must notice the first cycle whose residual does not improve and let
// the plain iteration finish: same fixed point, at most a few evaluations
// more than plain.
func TestAitkenStallGuard(t *testing.T) {
	f := rotation(0.99, 0.3, [2]float64{1, 1})
	x0 := []float64{1.4, 1.2}
	upper := []float64{2, 2}
	const tol, maxIter = 1e-12, 200000
	var acc Accelerator
	_, plainIters, ok := solve(&acc, None, f, x0, upper, tol, maxIter)
	if !ok {
		t.Fatalf("plain iteration did not converge in %d evaluations", maxIter)
	}
	got, iters, ok := solve(&acc, Aitken, f, x0, upper, tol, maxIter)
	if !ok {
		t.Fatalf("aitken did not converge in %d evaluations (plain: %d)", maxIter, plainIters)
	}
	checkFixed(t, got, f)
	if iters > plainIters+4 {
		t.Errorf("aitken took %d evaluations, plain %d: the guard latched too late", iters, plainIters)
	}
	t.Logf("plain %d evaluations, guarded aitken %d", plainIters, iters)
}

// TestAitkenAccelerates pins the benefit the guard must not cost: on a
// contraction with one dominant real eigenvalue (0.98 against 0.3), the
// extrapolation sums the slow tail and converges in a small fraction of the
// plain iteration's evaluations.
func TestAitkenAccelerates(t *testing.T) {
	f := affine{a: [2][2]float64{{0.98, 0}, {0, 0.3}}, c: [2]float64{1, 2}}
	x0 := []float64{0.2, 0.5}
	upper := []float64{4, 4}
	var acc Accelerator
	_, plainIters, ok := solve(&acc, None, f, x0, upper, 1e-12, 100000)
	if !ok {
		t.Fatal("plain iteration did not converge")
	}
	got, iters, ok := solve(&acc, Aitken, f, x0, upper, 1e-12, 100000)
	if !ok {
		t.Fatal("aitken did not converge")
	}
	checkFixed(t, got, f)
	if 4*iters > plainIters {
		t.Errorf("aitken took %d evaluations, plain %d: want at least 4x fewer", iters, plainIters)
	}
}

// TestAndersonMatchesPlain runs Anderson mixing on the rotation contraction:
// it must land on the fixed point in fewer evaluations than plain.
func TestAndersonMatchesPlain(t *testing.T) {
	f := rotation(0.99, 0.3, [2]float64{1, 1})
	x0 := []float64{1.4, 1.2}
	upper := []float64{2, 2}
	var acc Accelerator
	_, plainIters, _ := solve(&acc, None, f, x0, upper, 1e-12, 200000)
	got, iters, ok := solve(&acc, Anderson, f, x0, upper, 1e-12, 200000)
	if !ok {
		t.Fatal("anderson did not converge")
	}
	checkFixed(t, got, f)
	if iters >= plainIters {
		t.Errorf("anderson took %d evaluations, plain %d", iters, plainIters)
	}
}

// TestResetClearsStall reuses one accelerator: a stalled run must not leave
// the next run latched to plain steps.
func TestResetClearsStall(t *testing.T) {
	var acc Accelerator
	stall := rotation(0.99, 0.3, [2]float64{1, 1})
	if _, _, ok := solve(&acc, Aitken, stall, []float64{1.4, 1.2}, []float64{2, 2}, 1e-10, 200000); !ok {
		t.Fatal("stalling run did not converge")
	}
	fast := affine{a: [2][2]float64{{0.98, 0}, {0, 0.3}}, c: [2]float64{1, 2}}
	_, reused, _ := solve(&acc, Aitken, fast, []float64{0.2, 0.5}, []float64{4, 4}, 1e-10, 100000)
	_, fresh, _ := solve(new(Accelerator), Aitken, fast, []float64{0.2, 0.5}, []float64{4, 4}, 1e-10, 100000)
	if reused != fresh {
		t.Errorf("reused accelerator took %d evaluations, fresh %d", reused, fresh)
	}
}
