package graph

import (
	"testing"

	"kkt/internal/rng"
)

func isConnected(g *Graph) bool {
	_, n := components(g)
	return n <= 1
}

func TestRandomTree(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{2, 3, 10, 100} {
		g := RandomTree(r, n, 100, UniformWeights(r, 100))
		if g.M() != n-1 {
			t.Fatalf("n=%d: tree has %d edges", n, g.M())
		}
		if !isConnected(g) {
			t.Fatalf("n=%d: tree disconnected", n)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPathRingStarShapes(t *testing.T) {
	w := UnitWeights()
	p := Path(5, 1, w)
	if p.M() != 4 || p.Degree(1) != 1 || p.Degree(3) != 2 {
		t.Error("path shape wrong")
	}
	rg := Ring(5, 1, w)
	if rg.M() != 5 {
		t.Error("ring edge count wrong")
	}
	for v := uint32(1); v <= 5; v++ {
		if rg.Degree(v) != 2 {
			t.Errorf("ring degree of %d = %d", v, rg.Degree(v))
		}
	}
	s := Star(6, 1, w)
	if s.Degree(1) != 5 || s.Degree(2) != 1 {
		t.Error("star shape wrong")
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4, 7, UnitWeights())
	if g.N != 12 {
		t.Fatalf("grid has %d nodes", g.N)
	}
	// m = rows*(cols-1) + (rows-1)*cols = 3*3 + 2*4 = 17
	if g.M() != 17 {
		t.Fatalf("grid has %d edges, want 17", g.M())
	}
	if !isConnected(g) {
		t.Fatal("grid disconnected")
	}
}

func TestComplete(t *testing.T) {
	g := Complete(7, 10, UnitWeights())
	if g.M() != 21 {
		t.Fatalf("K7 has %d edges", g.M())
	}
	for v := uint32(1); v <= 7; v++ {
		if g.Degree(v) != 6 {
			t.Fatalf("K7 degree %d", g.Degree(v))
		}
	}
}

func TestGNM(t *testing.T) {
	r := rng.New(10)
	for _, tc := range []struct{ n, m int }{{10, 9}, {10, 20}, {50, 200}, {4, 6}} {
		g := GNM(r, tc.n, tc.m, 1000, UniformWeights(r, 1000))
		if g.M() != tc.m {
			t.Fatalf("GNM(%d,%d) has %d edges", tc.n, tc.m, g.M())
		}
		if !isConnected(g) {
			t.Fatalf("GNM(%d,%d) disconnected", tc.n, tc.m)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGNMPanicsOnBadM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("GNM with m < n-1 should panic")
		}
	}()
	r := rng.New(1)
	GNM(r, 10, 5, 10, UnitWeights())
}

func TestGNPConnected(t *testing.T) {
	r := rng.New(6)
	for _, p := range []float64{0.0, 0.05, 0.5} {
		g := GNP(r, 40, p, 50, UniformWeights(r, 50))
		if !isConnected(g) {
			t.Fatalf("GNP(p=%v) disconnected", p)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPreferentialAttachment(t *testing.T) {
	r := rng.New(12)
	g := PreferentialAttachment(r, 200, 3, 100, UniformWeights(r, 100))
	if !isConnected(g) {
		t.Fatal("PA graph disconnected")
	}
	if g.M() < 200 {
		t.Fatalf("PA graph too sparse: %d edges", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBarbell(t *testing.T) {
	g := Barbell(5, 10, 10, UnitWeights())
	if g.N != 20 {
		t.Fatalf("barbell nodes = %d", g.N)
	}
	// 2 * C(5,2) + path of 11 edges
	if g.M() != 2*10+11 {
		t.Fatalf("barbell edges = %d, want 31", g.M())
	}
	if !isConnected(g) {
		t.Fatal("barbell disconnected")
	}
}

func TestPermutationWeightsDistinct(t *testing.T) {
	r := rng.New(2)
	w := PermutationWeights(r, 10)
	seen := make(map[uint64]bool)
	for k := 0; k < 10; k++ {
		v := w(k)
		if v < 1 || v > 10 || seen[v] {
			t.Fatalf("bad permutation weight %d", v)
		}
		seen[v] = true
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1 := GNM(rng.New(42), 30, 60, 100, UniformWeights(rng.New(43), 100))
	g2 := GNM(rng.New(42), 30, 60, 100, UniformWeights(rng.New(43), 100))
	if g1.M() != g2.M() {
		t.Fatal("nondeterministic generator")
	}
	for i := range g1.Edges() {
		if g1.Edge(i) != g2.Edge(i) {
			t.Fatalf("edge %d differs", i)
		}
	}
}

// fingerprint folds a graph's full edge list (order, endpoints, weight)
// into one FNV-style word, so golden tests can pin a generator's exact
// output across refactors.
func fingerprint(g *Graph) uint64 {
	h := uint64(0xcbf29ce484222325)
	mix := func(v uint64) {
		h ^= v
		h *= 0x100000001b3
	}
	for _, e := range g.Edges() {
		mix(uint64(e.A))
		mix(uint64(e.B))
		mix(e.Raw)
	}
	return h
}

// TestGNMFingerprintPinned pins one seeded GNM output outright, so any
// accidental change to the generation algorithm (which would silently
// re-roll every seeded scenario in the suite) fails loudly.
func TestGNMFingerprintPinned(t *testing.T) {
	g := GNM(rng.New(42), 200, 600, 1000, UniformWeights(rng.New(43), 1000))
	const want = 0x5aed7a8e09ea9fe7
	if got := fingerprint(g); got != want {
		t.Fatalf("GNM(42, 200, 600) fingerprint %#x, want %#x — the generator's output changed", got, want)
	}
}

// TestHypercube: exact shape — n·d/2 edges, degree d everywhere,
// connected, valid.
func TestHypercube(t *testing.T) {
	for _, d := range []int{1, 2, 4, 6} {
		g := Hypercube(d, 10, UnitWeights())
		n := 1 << d
		if g.N != n {
			t.Fatalf("d=%d: %d nodes, want %d", d, g.N, n)
		}
		if g.M() != n*d/2 {
			t.Fatalf("d=%d: %d edges, want n·d/2 = %d", d, g.M(), n*d/2)
		}
		for v := uint32(1); v <= uint32(n); v++ {
			if g.Degree(v) != d {
				t.Fatalf("d=%d: degree of %d is %d, want %d", d, v, g.Degree(v), d)
			}
		}
		if !isConnected(g) {
			t.Fatalf("d=%d: hypercube disconnected", d)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHypercubeN(t *testing.T) {
	g := HypercubeN(64, 10, UnitWeights())
	if g.N != 64 || g.M() != 64*6/2 {
		t.Fatalf("HypercubeN(64): n=%d m=%d", g.N, g.M())
	}
	defer func() {
		if recover() == nil {
			t.Error("HypercubeN with a non-power-of-two should panic")
		}
	}()
	HypercubeN(48, 10, UnitWeights())
}

// TestHypercubeFingerprintPinned pins the deterministic edge order and a
// seeded weight stream outright, so the generator's exact output — which
// seeds every hypercube scenario — cannot drift silently.
func TestHypercubeFingerprintPinned(t *testing.T) {
	g := Hypercube(6, 1000, UniformWeights(rng.New(43), 1000))
	const want uint64 = 0x109cd44b625096b6
	if got := fingerprint(g); got != want {
		t.Fatalf("Hypercube(6) fingerprint %#x, want %#x — the generator's output changed", got, want)
	}
}

// TestRandomGeometric: the stitched graph is connected and valid, the
// radius controls density, and the default radius yields the expected
// ~1.5·n·ln n edge-count regime.
func TestRandomGeometric(t *testing.T) {
	r := rng.New(9)
	n := 500
	rad := GeometricRadius(n)
	g := RandomGeometric(r, n, rad, 100, UniformWeights(rng.New(10), 100))
	if !isConnected(g) {
		t.Fatal("geometric graph disconnected")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Expected m ~ 1.5·n·ln n ≈ 4660 at n=500; allow a wide band.
	if g.M() < n || g.M() > 8*n*7 {
		t.Fatalf("geometric edge count %d outside the expected regime", g.M())
	}
	// Geometry sanity: every generated edge spans at most the radius —
	// except stitch edges, so check a denser un-stitched regime instead.
	big := RandomGeometric(rng.New(3), 300, 0.25, 100, UniformWeights(rng.New(4), 100))
	if !isConnected(big) {
		t.Fatal("dense geometric graph disconnected")
	}
}

// TestGeometricFingerprintPinned pins one seeded geometric output.
func TestGeometricFingerprintPinned(t *testing.T) {
	g := RandomGeometric(rng.New(21), 400, GeometricRadius(400), 1000, UniformWeights(rng.New(22), 1000))
	const want uint64 = 0xe632100b25379850
	if got := fingerprint(g); got != want {
		t.Fatalf("RandomGeometric(21, 400) fingerprint %#x, want %#x — the generator's output changed", got, want)
	}
}

// TestPowerLawFingerprintPinned pins one seeded preferential-attachment
// output, now that the generator backs a harness family.
func TestPowerLawFingerprintPinned(t *testing.T) {
	g := PreferentialAttachment(rng.New(31), 400, 3, 1000, UniformWeights(rng.New(32), 1000))
	const want uint64 = 0x1d17162dd170f8c0
	if got := fingerprint(g); got != want {
		t.Fatalf("PreferentialAttachment(31, 400, 3) fingerprint %#x, want %#x — the generator's output changed", got, want)
	}
}

// TestPowerLawTailHeavierThanGNM: the degree distribution sanity check
// behind the powerlaw family — at matched n and near-matched m, the
// preferential-attachment maximum degree dwarfs GNM's, and the heavy tail
// (degree ≥ 4× the mean) holds a disproportionate share of endpoints.
func TestPowerLawTailHeavierThanGNM(t *testing.T) {
	const n = 2000
	pa := PreferentialAttachment(rng.New(5), n, 3, 100, UniformWeights(rng.New(6), 100))
	gn := GNM(rng.New(5), n, pa.M(), 100, UniformWeights(rng.New(6), 100))
	maxDeg := func(g *Graph) int {
		best := 0
		for v := uint32(1); v <= uint32(g.N); v++ {
			if d := g.Degree(v); d > best {
				best = d
			}
		}
		return best
	}
	paMax, gnMax := maxDeg(pa), maxDeg(gn)
	if paMax < 2*gnMax {
		t.Fatalf("power-law max degree %d not clearly above GNM's %d", paMax, gnMax)
	}
	tailCut := 4 * 2 * pa.M() / n // 4× the mean degree
	tail := func(g *Graph) int {
		c := 0
		for v := uint32(1); v <= uint32(g.N); v++ {
			if g.Degree(v) >= tailCut {
				c++
			}
		}
		return c
	}
	if paTail, gnTail := tail(pa), tail(gn); paTail <= gnTail {
		t.Fatalf("power-law tail (deg >= %d): %d nodes, GNM: %d — tail not heavier", tailCut, paTail, gnTail)
	}
}

// TestComponentsCanonicalLabels: union-find labelling finds every
// component and numbers them in first-node order — the numbering
// stitchConnected relies on.
func TestComponentsCanonicalLabels(t *testing.T) {
	// Two GNM blobs plus 100 isolated nodes: 102 components, ~40k edges.
	w := UniformWeights(rng.New(10), 100)
	g := MustNew(2100, 100)
	blob := func(lo, n, m int) {
		sub := GNM(rng.New(uint64(lo)), n, m, 100, w)
		for _, e := range sub.Edges() {
			g.MustAddEdge(e.A+uint32(lo), e.B+uint32(lo), e.Raw)
		}
	}
	blob(0, 1000, 20000)
	blob(1000, 1000, 20000)
	comp, ncomp := components(g)
	if ncomp != 102 {
		t.Fatalf("%d components, want 102", ncomp)
	}
	for _, e := range g.Edges() {
		if comp[e.A] != comp[e.B] {
			t.Fatalf("edge {%d,%d} spans components %d and %d", e.A, e.B, comp[e.A], comp[e.B])
		}
	}
	next := 0
	for v := 1; v <= g.N; v++ {
		switch {
		case comp[v] == next:
			next++
		case comp[v] > next:
			t.Fatalf("comp[%d] = %d before label %d appeared", v, comp[v], next)
		}
	}
}

func TestExpander(t *testing.T) {
	r := rng.New(7)
	g := Expander(r, 64, 4, 100, UniformWeights(rng.New(8), 100))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !isConnected(g) {
		t.Fatal("expander disconnected")
	}
	// ring edges plus at most one chord layer's worth
	if g.M() < 64 || g.M() > 2*64 {
		t.Fatalf("expander edges = %d, want within (64, 128]", g.M())
	}
	maxDeg := 0
	for v := uint32(1); v <= 64; v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	// degree 2 from the ring plus at most 2 per chord layer
	if maxDeg > 4 {
		t.Fatalf("expander max degree = %d, want <= 4", maxDeg)
	}
}
