package mms

import (
	"math"
	"testing"

	"lattol/internal/access"
	"lattol/internal/topology"
)

// routeVisits is the reference visit computation: one freshly allocated
// Route per direction and destination, accumulated in the same order as
// visitsFrom.
func routeVisits(t topology.Network, home topology.Node, p float64, q func(topology.Node) float64) (mem, out, in []float64) {
	n := t.Nodes()
	mem, out, in = make([]float64, n), make([]float64, n), make([]float64, n)
	mem[home] = 1 - p
	out[home] = p
	for j := 0; j < n; j++ {
		dst := topology.Node(j)
		if dst == home {
			continue
		}
		em := p * q(dst)
		mem[j] = em
		out[j] += em
		if em == 0 {
			continue
		}
		for _, hop := range t.Route(home, dst) {
			in[hop] += em
		}
		for _, hop := range t.Route(dst, home) {
			in[hop] += em
		}
	}
	return mem, out, in
}

// scanDistinct is the reference row merge: a linear scan per value,
// first-seen order.
func scanDistinct(vis []float64) (vals, counts []float64) {
	for _, x := range vis {
		if x == 0 {
			continue
		}
		found := false
		for k := range vals {
			if vals[k] == x {
				counts[k]++
				found = true
				break
			}
		}
		if !found {
			vals = append(vals, x)
			counts = append(counts, 1)
		}
	}
	return vals, counts
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestVisitsMatchRouteReference pins the allocation-free route walk to the
// Route-based reference bit for bit, on tori and meshes of every size up to
// 24×24 and from several home nodes (the mesh is not vertex-transitive).
func TestVisitsMatchRouteReference(t *testing.T) {
	for k := 2; k <= 24; k++ {
		for _, net := range []topology.Network{topology.MustTorus(k), topology.MustMesh(k)} {
			pat, err := access.NewGeometricOn(net, 0.6, access.PerDistance)
			if err != nil {
				t.Fatal(err)
			}
			n := net.Nodes()
			for _, home := range []topology.Node{0, topology.Node(n / 2), topology.Node(n - 1)} {
				q := func(dst topology.Node) float64 { return pat.Prob(home, dst) }
				mem, out, in := visitsFrom(net, home, 0.3, q)
				rm, ro, ri := routeVisits(net, home, 0.3, q)
				if !sameBits(mem, rm) || !sameBits(out, ro) || !sameBits(in, ri) {
					t.Fatalf("%s home %d: visits differ from the Route reference", net.Name(), home)
				}
			}
		}
	}
}

// TestMergedRowsMatchScan pins the hashed row merge to the linear-scan
// reference — same values, same counts, same first-seen order — so the
// kernel's row layout is unchanged, for every torus size up to 24.
func TestMergedRowsMatchScan(t *testing.T) {
	for k := 1; k <= 24; k++ {
		cfg := DefaultConfig()
		cfg.K = k
		cfg.Psw = 0.79
		if k == 1 {
			cfg.PRemote = 0
		}
		m, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r, vis := range [3][]float64{m.visitMem, m.visitOut, m.visitIn} {
			vals, counts := scanDistinct(vis)
			if !sameBits(m.mergeVals[r], vals) || !sameBits(m.mergeCounts[r], counts) {
				t.Fatalf("k=%d role %d: merged rows differ from the scan reference", k, r)
			}
		}
	}
}

// TestBuildAllocsFlatInK: elaborating a model must not allocate per route
// or per distinct visit value — a 24×24 torus allocates within a small
// constant of a 4×4 one.
func TestBuildAllocsFlatInK(t *testing.T) {
	allocs := func(k int) float64 {
		cfg := DefaultConfig()
		cfg.K = k
		return testing.AllocsPerRun(20, func() {
			if _, err := Build(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(4), allocs(24)
	if large > small+2 {
		t.Errorf("Build allocates %v times at k=24 against %v at k=4", large, small)
	}
	t.Logf("Build allocs: k=4 %v, k=24 %v", small, large)
}
