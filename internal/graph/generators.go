package graph

import (
	"fmt"
	"math"
	"sort"

	"kkt/internal/rng"
)

// WeightFunc assigns a raw weight to the k-th generated edge. Generators
// call it once per edge in generation order.
type WeightFunc func(k int) uint64

// UniformWeights draws raw weights uniformly from [1, u]. Duplicates are
// allowed; composite weights keep edges distinct, as in the paper.
func UniformWeights(r *rng.RNG, u uint64) WeightFunc {
	return func(int) uint64 { return r.Range(1, u) }
}

// UnitWeights assigns weight 1 to every edge — the unweighted (ST) setting.
func UnitWeights() WeightFunc {
	return func(int) uint64 { return 1 }
}

// PermutationWeights assigns the distinct weights 1..m in random order;
// callers must size u >= m. Useful when tests want raw weights to already
// be unique.
func PermutationWeights(r *rng.RNG, m int) WeightFunc {
	perm := r.Perm(m)
	return func(k int) uint64 { return uint64(perm[k]) + 1 }
}

// RandomTree returns a uniformly random labelled tree on n nodes
// (random-parent construction over a random permutation: each non-root
// attaches to a uniform predecessor, giving a random recursive tree —
// low-diameter, used as connected scaffolding).
func RandomTree(r *rng.RNG, n int, u uint64, w WeightFunc) *Graph {
	g := MustNew(n, u)
	order := r.Perm(n)
	for i := 1; i < n; i++ {
		a := uint32(order[i] + 1)
		b := uint32(order[r.Intn(i)] + 1)
		g.MustAddEdge(a, b, w(i-1))
	}
	return g
}

// Path returns the path 1-2-...-n, the maximum-diameter tree. Worst case
// for broadcast-and-echo round counts.
func Path(n int, u uint64, w WeightFunc) *Graph {
	g := MustNew(n, u)
	for i := 1; i < n; i++ {
		g.MustAddEdge(uint32(i), uint32(i+1), w(i-1))
	}
	return g
}

// Ring returns the n-cycle.
func Ring(n int, u uint64, w WeightFunc) *Graph {
	if n < 3 {
		panic("graph: ring needs n >= 3")
	}
	g := Path(n, u, w)
	g.MustAddEdge(1, uint32(n), w(n-1))
	return g
}

// Star returns the star with centre 1.
func Star(n int, u uint64, w WeightFunc) *Graph {
	g := MustNew(n, u)
	for i := 2; i <= n; i++ {
		g.MustAddEdge(1, uint32(i), w(i-2))
	}
	return g
}

// Grid returns the rows x cols grid graph (n = rows*cols nodes).
func Grid(rows, cols int, u uint64, w WeightFunc) *Graph {
	g := MustNew(rows*cols, u)
	id := func(r, c int) uint32 { return uint32(r*cols + c + 1) }
	k := 0
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.MustAddEdge(id(r, c), id(r, c+1), w(k))
				k++
			}
			if r+1 < rows {
				g.MustAddEdge(id(r, c), id(r+1, c), w(k))
				k++
			}
		}
	}
	return g
}

// Complete returns K_n. Dense extreme: m = n(n-1)/2, where the o(m)
// separation from GHS/flooding is widest.
func Complete(n int, u uint64, w WeightFunc) *Graph {
	g := MustNew(n, u)
	k := 0
	for a := 1; a <= n; a++ {
		for b := a + 1; b <= n; b++ {
			g.MustAddEdge(uint32(a), uint32(b), w(k))
			k++
		}
	}
	return g
}

// GNM returns a connected Erdos-Renyi-style G(n,m): a random tree plus
// m-(n-1) distinct random chords. It panics if m < n-1 or m exceeds the
// number of possible edges.
func GNM(r *rng.RNG, n, m int, u uint64, w WeightFunc) *Graph {
	maxM := n * (n - 1) / 2
	if m < n-1 || m > maxM {
		panic(fmt.Sprintf("graph: GNM with m=%d outside [n-1=%d, %d]", m, n-1, maxM))
	}
	g := RandomTree(r, n, u, w)
	k := n - 1
	for g.M() < m {
		a := uint32(r.Intn(n) + 1)
		b := uint32(r.Intn(n) + 1)
		if a == b || g.HasEdge(a, b) {
			continue
		}
		g.MustAddEdge(a, b, w(k))
		k++
	}
	return g
}

// GNP returns G(n,p) conditioned on connectivity: each possible edge is
// present independently with probability p, and a random tree over the
// leftover components stitches the graph connected.
func GNP(r *rng.RNG, n int, p float64, u uint64, w WeightFunc) *Graph {
	g := MustNew(n, u)
	k := 0
	for a := 1; a <= n; a++ {
		for b := a + 1; b <= n; b++ {
			if r.Float64() < p {
				g.MustAddEdge(uint32(a), uint32(b), w(k))
				k++
			}
		}
	}
	stitchConnected(r, g, w, &k)
	return g
}

// PreferentialAttachment returns a Barabasi-Albert-style graph: each new
// node attaches to deg attachments chosen proportionally to degree.
// Heavy-tailed degrees stress the per-node aggregation paths.
func PreferentialAttachment(r *rng.RNG, n, deg int, u uint64, w WeightFunc) *Graph {
	if deg < 1 {
		panic("graph: attachment degree must be >= 1")
	}
	g := MustNew(n, u)
	// endpoint multiset: each edge contributes both endpoints, so sampling
	// uniformly from it is degree-proportional sampling.
	endpoints := make([]uint32, 0, 2*n*deg)
	k := 0
	g.MustAddEdge(1, 2, w(k))
	k++
	endpoints = append(endpoints, 1, 2)
	for v := 3; v <= n; v++ {
		vid := uint32(v)
		attached := 0
		for attempts := 0; attached < deg && attempts < 50*deg; attempts++ {
			t := endpoints[r.Intn(len(endpoints))]
			if t == vid || g.HasEdge(vid, t) {
				continue
			}
			g.MustAddEdge(vid, t, w(k))
			k++
			endpoints = append(endpoints, vid, t)
			attached++
		}
		if attached == 0 { // degenerate fallback keeps the graph connected
			t := uint32(r.Intn(v-1) + 1)
			if !g.HasEdge(vid, t) {
				g.MustAddEdge(vid, t, w(k))
				k++
				endpoints = append(endpoints, vid, t)
			}
		}
	}
	return g
}

// Hypercube returns the d-dimensional hypercube on n = 2^d nodes: node
// v (0-based v-1) links to every single-bit flip of itself, giving exactly
// n·d/2 edges. The edge count grows as (n/2)·log₂ n — a superlinear
// density ladder built into the family itself, which is what makes it a
// natural axis for the o(m) scaling sweep. Fully deterministic: the only
// randomness is the caller's weight function.
func Hypercube(d int, u uint64, w WeightFunc) *Graph {
	if d < 1 {
		panic("graph: hypercube needs dimension >= 1")
	}
	n := 1 << d
	g := MustNew(n, u)
	k := 0
	// Canonical edge order: ascending lower endpoint, then ascending bit.
	// Every edge is emitted once, from its smaller endpoint.
	for v := 0; v < n; v++ {
		for b := 0; b < d; b++ {
			peer := v ^ (1 << b)
			if peer > v {
				g.MustAddEdge(uint32(v+1), uint32(peer+1), w(k))
				k++
			}
		}
	}
	return g
}

// HypercubeN is Hypercube keyed by node count; n must be a power of two.
func HypercubeN(n int, u uint64, w WeightFunc) *Graph {
	if n < 2 || n&(n-1) != 0 {
		panic(fmt.Sprintf("graph: hypercube needs a power-of-two node count, got %d", n))
	}
	d := 0
	for 1<<d < n {
		d++
	}
	return Hypercube(d, u, w)
}

// RandomGeometric returns a random geometric graph conditioned on
// connectivity: n points drawn uniformly in the unit square, an edge
// between every pair within the given radius, plus random stitch edges
// joining any leftover components. With radius ~ sqrt(log n / n) the
// expected edge count grows as n·log n.
func RandomGeometric(r *rng.RNG, n int, radius float64, u uint64, w WeightFunc) *Graph {
	if n < 1 {
		panic("graph: geometric needs n >= 1")
	}
	if radius <= 0 || radius > 1.5 {
		panic(fmt.Sprintf("graph: geometric radius %v outside (0, 1.5]", radius))
	}
	g := MustNew(n, u)
	xs := make([]float64, n+1)
	ys := make([]float64, n+1)
	for v := 1; v <= n; v++ {
		xs[v] = r.Float64()
		ys[v] = r.Float64()
	}
	// Bucket grid with cell side >= radius: all neighbours of a point lie
	// in its own or the eight surrounding cells.
	side := int(1 / radius)
	if side < 1 {
		side = 1
	}
	cell := func(v int) (int, int) {
		cx := int(xs[v] * float64(side))
		cy := int(ys[v] * float64(side))
		if cx >= side {
			cx = side - 1
		}
		if cy >= side {
			cy = side - 1
		}
		return cx, cy
	}
	buckets := make([][]int32, side*side)
	for v := 1; v <= n; v++ {
		cx, cy := cell(v)
		buckets[cy*side+cx] = append(buckets[cy*side+cx], int32(v))
	}
	rad2 := radius * radius
	// Scan lower endpoints a ascending and, for each, its within-radius
	// partners b > a ascending: the edge order is a pure function of the
	// point set.
	k := 0
	var cand []int32
	for a := 1; a <= n; a++ {
		cx, cy := cell(a)
		cand = cand[:0]
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, ny := cx+dx, cy+dy
				if nx < 0 || nx >= side || ny < 0 || ny >= side {
					continue
				}
				for _, b := range buckets[ny*side+nx] {
					if int(b) <= a {
						continue
					}
					ddx := xs[a] - xs[b]
					ddy := ys[a] - ys[b]
					if ddx*ddx+ddy*ddy <= rad2 {
						cand = append(cand, b)
					}
				}
			}
		}
		sort.Slice(cand, func(i, j int) bool { return cand[i] < cand[j] })
		for _, b := range cand {
			g.MustAddEdge(uint32(a), uint32(b), w(k))
			k++
		}
	}
	stitchConnected(r, g, w, &k)
	return g
}

// GeometricRadius is the default connectivity-scaled radius for
// RandomGeometric: sqrt(3·ln n / (π·n)), giving expected degree ~3·ln n —
// comfortably above the sharp connectivity threshold ln n/π, with the
// edge count growing as ~1.5·n·ln n.
func GeometricRadius(n int) float64 {
	if n < 2 {
		return 1
	}
	r := math.Sqrt(3 * math.Log(float64(n)) / (math.Pi * float64(n)))
	if r > 1 {
		r = 1
	}
	return r
}

// Expander returns a ring plus chords from (deg-2)/2 independent random
// permutations (self-loops and duplicates skipped), the classical
// construction of a near-deg-regular graph that is an expander w.h.p.
// Each permutation layer adds at most 2 to a node's degree, so deg must
// be even for the bound to be exact. Constant degree with logarithmic
// diameter: the opposite stress profile from Ring (constant degree,
// linear diameter) and Complete (dense).
func Expander(r *rng.RNG, n, deg int, u uint64, w WeightFunc) *Graph {
	if deg < 4 || deg%2 != 0 {
		panic("graph: expander needs an even degree >= 4")
	}
	g := Ring(n, u, w)
	k := g.M()
	for layer := 0; layer < (deg-2)/2; layer++ {
		perm := r.Perm(n)
		for i := 0; i < n; i++ {
			a, b := uint32(i+1), uint32(perm[i]+1)
			if a == b || g.HasEdge(a, b) {
				continue
			}
			g.MustAddEdge(a, b, w(k))
			k++
		}
	}
	return g
}

// Barbell returns two cliques of size k joined by a path of n-2k nodes.
// The long path maximises tree diameter while the cliques maximise local
// density — adversarial for both round counts and message counts.
func Barbell(k, pathLen int, u uint64, w WeightFunc) *Graph {
	n := 2*k + pathLen
	g := MustNew(n, u)
	idx := 0
	clique := func(lo int) {
		for a := lo; a < lo+k; a++ {
			for b := a + 1; b < lo+k; b++ {
				g.MustAddEdge(uint32(a), uint32(b), w(idx))
				idx++
			}
		}
	}
	clique(1)
	clique(k + pathLen + 1)
	// path from node k to node k+pathLen+1 through the middle nodes.
	prev := uint32(k)
	for i := 0; i < pathLen; i++ {
		next := uint32(k + 1 + i)
		g.MustAddEdge(prev, next, w(idx))
		idx++
		prev = next
	}
	g.MustAddEdge(prev, uint32(k+pathLen+1), w(idx))
	return g
}

// stitchConnected adds random edges between components until the graph is
// connected.
func stitchConnected(r *rng.RNG, g *Graph, w WeightFunc, k *int) {
	for {
		comp, ncomp := components(g)
		if ncomp <= 1 {
			return
		}
		// pick one representative per component and chain them randomly.
		reps := make([]uint32, ncomp)
		seen := make([]bool, ncomp)
		for v := 1; v <= g.N; v++ {
			c := comp[v]
			if !seen[c] {
				seen[c] = true
				reps[c] = uint32(v)
			}
		}
		r.Shuffle(len(reps), func(i, j int) { reps[i], reps[j] = reps[j], reps[i] })
		for i := 1; i < len(reps); i++ {
			if !g.HasEdge(reps[i-1], reps[i]) {
				g.MustAddEdge(reps[i-1], reps[i], w(*k))
				*k++
			}
		}
	}
}

// components labels nodes with component indices 0..ncomp-1 (index 0 of the
// returned slice is unused), via union-find over the edge list.
func components(g *Graph) (comp []int, ncomp int) {
	n := g.N
	parent := make([]uint32, n+1)
	for i := range parent {
		parent[i] = uint32(i)
	}
	for _, e := range g.Edges() {
		ufUnion(parent, e.A, e.B)
	}
	// Canonical labels: scanning nodes in ascending order, a component is
	// numbered when its first (smallest) node appears — matching the DFS
	// numbering stitchConnected always relied on.
	comp = make([]int, n+1)
	label := make([]int, n+1)
	for i := range label {
		label[i] = -1
	}
	comp[0] = -1
	for v := 1; v <= n; v++ {
		root := int(ufFind(parent, uint32(v)))
		if label[root] < 0 {
			label[root] = ncomp
			ncomp++
		}
		comp[v] = label[root]
	}
	return comp, ncomp
}

// ufFind resolves x's root with path halving.
func ufFind(parent []uint32, x uint32) uint32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// ufUnion links the components of a and b, attaching the larger root under
// the smaller, so every root is its component's smallest node.
func ufUnion(parent []uint32, a, b uint32) {
	ra, rb := ufFind(parent, a), ufFind(parent, b)
	if ra > rb {
		ra, rb = rb, ra
	}
	parent[rb] = ra
}
