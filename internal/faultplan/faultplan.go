package faultplan

import (
	"fmt"
	"sort"

	"kkt/internal/graph"
	"kkt/internal/rng"
)

// Op is the kind of one compiled fault event.
type Op uint8

const (
	// OpDelete removes the link {A,B}.
	OpDelete Op = iota + 1
	// OpInsert adds the link {A,B} with raw weight Raw.
	OpInsert
	// OpWeightChange sets the raw weight of the existing link {A,B} to Raw.
	OpWeightChange
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpDelete:
		return "delete"
	case OpInsert:
		return "insert"
	case OpWeightChange:
		return "weight-change"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Event is one compiled topology change. Events carry everything needed to
// replay them: any failure minimizes to (seed, plan prefix) — replay the
// compiled list up to the failing index and the trial reproduces exactly.
//
// A is the repair initiator: targeted stages orient A toward the smaller
// side of the faulted edge (the partition region, the burst ball, the
// lighter forest subtree), and the wave-mode repair drivers root their
// searches at A — tree traversal cost then scales with the small side, not
// the 100k-node remainder. Orientation is a performance hint only;
// correctness never depends on it.
type Event struct {
	Op  Op     `json:"op"`
	A   uint32 `json:"a"`
	B   uint32 `json:"b"`
	Raw uint64 `json:"raw,omitempty"` // insert weight / new weight
	// Stage names the plan stage that emitted the event ("partition",
	// "burst", "bridge", "tree", "hub", "random", "heal") — the handle for
	// minimizing a failure to a plan prefix.
	Stage string `json:"stage"`
}

// Plan is the declarative adversarial workload of a repair scenario: how
// many faults of each targeting strategy to compile. A Plan plus a seed
// and a topology determines a reproducible event list (see Compile); the
// legacy FaultScript's uniform deletes/inserts/weight changes live on as
// the Deletes/Inserts/WeightChanges background block.
//
// Stages compile in a fixed order chosen to maximize stress: partitions
// first (they shatter the forest into regions the later faults land in),
// then correlated bursts, then the targeted single-edge deletes, then the
// shuffled uniform background block, and heals last (re-inserting
// partition cut edges so the forest must knit the regions back together).
type Plan struct {
	// Partitions cuts a forest subtree of ≤PartitionSize nodes (the small
	// side of a sampled tree edge) off the rest of the graph: every cut
	// edge is deleted, non-forest edges first so the final delete — the
	// region's single boundary tree edge — faces an emptied cut and its
	// repair must conclude the region is bridged off.
	Partitions    int `json:"partitions,omitempty"`
	PartitionSize int `json:"partition_size,omitempty"` // default max(n/8, 2)

	// Bursts deletes every edge incident to a random ball of radius
	// BurstRadius (default 1) — the correlated-failure workload.
	Bursts      int `json:"bursts,omitempty"`
	BurstRadius int `json:"burst_radius,omitempty"`

	// BridgeDeletes targets bridges of the current topology (repairs must
	// conclude Bridge, the most expensive verdict: an exhausted search).
	BridgeDeletes int `json:"bridge_deletes,omitempty"`
	// TreeEdgeDeletes targets edges of the maintained forest, so every
	// delete forces a real repair instead of a cheap no-op.
	TreeEdgeDeletes int `json:"tree_edge_deletes,omitempty"`
	// HubDeletes targets forest edges incident to the highest-degree nodes
	// (where the sketch machinery is most stressed).
	HubDeletes int `json:"hub_deletes,omitempty"`

	// Deletes/Inserts/WeightChanges are the uniform background block,
	// compiled in seeded shuffled interleaving (the legacy FaultScript
	// semantics).
	Deletes       int `json:"deletes,omitempty"`
	Inserts       int `json:"inserts,omitempty"`
	WeightChanges int `json:"weight_changes,omitempty"`

	// Heals re-inserts edges deleted by the partition/burst stages (with
	// their original weights), forcing the repair layer to re-join regions
	// it earlier concluded were bridged apart.
	Heals int `json:"heals,omitempty"`
}

// Empty reports whether the plan compiles to no events.
func (p Plan) Empty() bool {
	return p.Partitions == 0 && p.Bursts == 0 && p.BridgeDeletes == 0 &&
		p.TreeEdgeDeletes == 0 && p.HubDeletes == 0 &&
		p.Deletes == 0 && p.Inserts == 0 && p.WeightChanges == 0 && p.Heals == 0
}

// Approx returns a rough op count for listings (partition/burst/heal
// stages expand to a topology-dependent number of events).
func (p Plan) Approx() int {
	return p.Partitions + p.Bursts + p.BridgeDeletes + p.TreeEdgeDeletes +
		p.HubDeletes + p.Deletes + p.Inserts + p.WeightChanges + p.Heals
}

// Validate rejects malformed plans.
func (p Plan) Validate() error {
	for _, c := range []struct {
		name string
		v    int
	}{
		{"partitions", p.Partitions}, {"partition_size", p.PartitionSize},
		{"bursts", p.Bursts}, {"burst_radius", p.BurstRadius},
		{"bridge_deletes", p.BridgeDeletes}, {"tree_edge_deletes", p.TreeEdgeDeletes},
		{"hub_deletes", p.HubDeletes}, {"deletes", p.Deletes},
		{"inserts", p.Inserts}, {"weight_changes", p.WeightChanges}, {"heals", p.Heals},
	} {
		if c.v < 0 {
			return fmt.Errorf("faultplan: negative %s (%d)", c.name, c.v)
		}
	}
	return nil
}

// half is one directed adjacency entry of the compiler's topology model.
type half struct {
	to  uint32
	raw uint64
}

// model is the compiler's mutable view of the topology: sorted adjacency
// slices (mirroring congest.NodeState) plus the maintained-forest
// approximation. The forest model is best-effort targeting, not ground
// truth: it starts as the reference forest and only shrinks on deletion —
// repairs will re-mark replacement edges the compiler cannot predict, so
// "tree edge" targeting degrades gracefully to "former tree edge" late in
// a plan. That is fine: targeting guides the adversary, correctness never
// depends on it.
type model struct {
	n      int
	maxRaw uint64
	adj    [][]half        // 1-based
	tree   map[uint64]bool // packed lo<<32|hi keys of modelled forest edges
	events []Event
	r      *rng.RNG

	// healPool records partition/burst deletions (with original weights)
	// for the heal stage, in deletion order.
	healPool []Event

	// scratch for BFS stages.
	visited []bool
	queue   []uint32
}

func edgeKey(a, b uint32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// Compile turns a plan into its reproducible event list for the given
// topology, maintained forest (edge indices into g) and seed. Identical
// inputs produce identical lists; the compiler never emits an invalid
// event (deleting an absent edge, inserting a present one) against its own
// model of the evolving topology.
func Compile(p Plan, g *graph.Graph, forest []int, seed uint64) []Event {
	m := &model{
		n:       g.N,
		maxRaw:  g.MaxRaw,
		adj:     make([][]half, g.N+1),
		tree:    make(map[uint64]bool, len(forest)),
		r:       rng.New(seed ^ 0xa0761d6478bd642f),
		visited: make([]bool, g.N+1),
	}
	deg := make([]int, g.N+1)
	for _, e := range g.Edges() {
		deg[e.A]++
		deg[e.B]++
	}
	for v := 1; v <= g.N; v++ {
		if deg[v] > 0 {
			m.adj[v] = make([]half, 0, deg[v])
		}
	}
	for _, e := range g.Edges() {
		m.adj[e.A] = append(m.adj[e.A], half{to: e.B, raw: e.Raw})
		m.adj[e.B] = append(m.adj[e.B], half{to: e.A, raw: e.Raw})
	}
	for v := 1; v <= g.N; v++ {
		a := m.adj[v]
		sort.Slice(a, func(i, j int) bool { return a[i].to < a[j].to })
	}
	for _, ei := range forest {
		e := g.Edge(ei)
		m.tree[edgeKey(e.A, e.B)] = true
	}

	m.partitions(p)
	m.bursts(p)
	m.bridges(p)
	m.treeDeletes(p)
	m.hubDeletes(p)
	m.background(p)
	m.heals(p)
	return m.events
}

// --- model mutation (keeps adjacency + forest approximation in sync) ---

func (m *model) hasEdge(a, b uint32) bool {
	adj := m.adj[a]
	i := sort.Search(len(adj), func(i int) bool { return adj[i].to >= b })
	return i < len(adj) && adj[i].to == b
}

func (m *model) rawOf(a, b uint32) (uint64, bool) {
	adj := m.adj[a]
	i := sort.Search(len(adj), func(i int) bool { return adj[i].to >= b })
	if i < len(adj) && adj[i].to == b {
		return adj[i].raw, true
	}
	return 0, false
}

func (m *model) removeHalf(a, b uint32) {
	adj := m.adj[a]
	i := sort.Search(len(adj), func(i int) bool { return adj[i].to >= b })
	if i < len(adj) && adj[i].to == b {
		m.adj[a] = append(adj[:i], adj[i+1:]...)
	}
}

func (m *model) addHalf(a, b uint32, raw uint64) {
	adj := m.adj[a]
	i := sort.Search(len(adj), func(i int) bool { return adj[i].to >= b })
	m.adj[a] = append(adj, half{})
	copy(m.adj[a][i+1:], m.adj[a][i:])
	m.adj[a][i] = half{to: b, raw: raw}
}

// del emits a delete event for the existing edge {a,b}; pool records it
// for the heal stage. Returns false if the edge is already gone.
func (m *model) del(a, b uint32, stage string, pool bool) bool {
	raw, ok := m.rawOf(a, b)
	if !ok {
		return false
	}
	m.removeHalf(a, b)
	m.removeHalf(b, a)
	delete(m.tree, edgeKey(a, b))
	ev := Event{Op: OpDelete, A: a, B: b, Raw: raw, Stage: stage}
	m.events = append(m.events, ev)
	if pool {
		m.healPool = append(m.healPool, ev)
	}
	return true
}

// ins emits an insert event for the absent edge {a,b}.
func (m *model) ins(a, b uint32, raw uint64, stage string) bool {
	if a == b || m.hasEdge(a, b) {
		return false
	}
	m.addHalf(a, b, raw)
	m.addHalf(b, a, raw)
	m.events = append(m.events, Event{Op: OpInsert, A: a, B: b, Raw: raw, Stage: stage})
	return true
}

// --- stages ---

// region grows a BFS ball from start to at most size nodes (or radius
// hops, when radius >= 0) and returns the member node IDs. Uses and resets
// the shared visited scratch.
func (m *model) region(start uint32, size, radius int) []uint32 {
	m.queue = m.queue[:0]
	m.queue = append(m.queue, start)
	m.visited[start] = true
	dist := map[uint32]int{start: 0}
	for qi := 0; qi < len(m.queue) && len(m.queue) < size; qi++ {
		v := m.queue[qi]
		if radius >= 0 && dist[v] >= radius {
			continue
		}
		for _, h := range m.adj[v] {
			if m.visited[h.to] {
				continue
			}
			m.visited[h.to] = true
			dist[h.to] = dist[v] + 1
			m.queue = append(m.queue, h.to)
			if len(m.queue) >= size {
				break
			}
		}
	}
	out := append([]uint32(nil), m.queue...)
	for _, v := range out {
		m.visited[v] = false
	}
	return out
}

// partitions severs Partitions forest subtrees from the rest of the
// graph. Each region is the small side of a sampled modelled tree edge
// (at most PartitionSize nodes; the largest qualifying side among a fixed
// sample wins, so regions trend toward the requested size). Every edge
// leaving the region is deleted — non-forest cut edges first, the single
// boundary tree edge last — so the tree edge's repair faces an
// already-emptied cut: it must scan it and conclude the region is bridged
// off. Making the region a full subtree (exactly one boundary tree edge)
// is what keeps a plan with hundreds of partitions feasible: every
// repair the stage triggers stays rooted in a ≤PartitionSize side,
// instead of the earlier BFS-ball regions whose many boundary tree edges
// each forced a search over the whole remaining graph.
func (m *model) partitions(p Plan) {
	if p.Partitions == 0 {
		return
	}
	size := p.PartitionSize
	if size <= 0 {
		size = m.n / 8
	}
	if size < 2 {
		size = 2
	}
	cand := m.treeEdgeList()
	const samples = 32
	for i := 0; i < p.Partitions; i++ {
		// Sample tree edges; keep the one with the largest small side
		// still under the region budget. Earlier regions delete tree
		// edges, so stale candidates are re-checked against m.tree.
		var ra, rb uint32
		best := 0
		for s := 0; s < samples && len(cand) > 0; s++ {
			e := cand[m.r.Intn(len(cand))]
			if !m.tree[edgeKey(e[0], e[1])] {
				continue
			}
			a, b := e[0], e[1]
			sa := m.sideSize(a, b, size+1)
			if sa > size {
				a, b = b, a
				sa = m.sideSize(a, b, size+1)
				if sa > size {
					continue
				}
			}
			if sa > best {
				best, ra, rb = sa, a, b
			}
		}
		if best == 0 {
			continue
		}
		reg := m.treeSide(ra, rb, size+1)
		in := make(map[uint32]bool, len(reg))
		for _, v := range reg {
			in[v] = true
		}
		var plain [][2]uint32
		for _, v := range reg {
			for _, h := range m.adj[v] {
				if in[h.to] {
					continue // internal edge: only cut edges are deleted
				}
				if v == ra && h.to == rb {
					continue // the boundary tree edge goes last
				}
				plain = append(plain, [2]uint32{v, h.to})
			}
		}
		for _, e := range plain {
			m.del(e[0], e[1], "partition", true)
		}
		m.del(ra, rb, "partition", true)
	}
}

// treeSide collects the nodes on a's side of the modelled forest edge
// {a,b}, stopping at limit (the sideSize walk, keeping the nodes).
func (m *model) treeSide(a, b uint32, limit int) []uint32 {
	m.queue = m.queue[:0]
	m.queue = append(m.queue, a)
	m.visited[a] = true
	for qi := 0; qi < len(m.queue) && len(m.queue) < limit; qi++ {
		v := m.queue[qi]
		for _, h := range m.adj[v] {
			if m.visited[h.to] || !m.tree[edgeKey(v, h.to)] {
				continue
			}
			if v == a && h.to == b {
				continue // do not cross the boundary edge itself
			}
			m.visited[h.to] = true
			m.queue = append(m.queue, h.to)
			if len(m.queue) >= limit {
				break
			}
		}
	}
	out := append([]uint32(nil), m.queue...)
	for _, v := range out {
		m.visited[v] = false
	}
	return out
}

// bursts deletes every edge incident to a random ball of BurstRadius hops
// — the correlated-failure workload (all links of a region die together).
func (m *model) bursts(p Plan) {
	radius := p.BurstRadius
	if radius <= 0 {
		radius = 1
	}
	for i := 0; i < p.Bursts; i++ {
		center := uint32(m.r.Intn(m.n) + 1)
		reg := m.region(center, m.n+1, radius)
		for _, v := range reg {
			// Snapshot the incident edges: del mutates adj[v].
			inc := make([][2]uint32, 0, len(m.adj[v]))
			for _, h := range m.adj[v] {
				inc = append(inc, [2]uint32{v, h.to})
			}
			// Non-forest edges first, forest edges last, so the repairs for
			// the tree edges face the already-thinned cut.
			for _, e := range inc {
				if !m.tree[edgeKey(e[0], e[1])] {
					m.del(e[0], e[1], "burst", true)
				}
			}
			for _, e := range inc {
				m.del(e[0], e[1], "burst", true)
			}
		}
	}
}

// bridgeEdges finds all bridges of the current model topology (iterative
// Tarjan lowpoint DFS — no recursion, the model may hold 100k+ nodes).
func (m *model) bridgeEdges() [][2]uint32 {
	disc := make([]int32, m.n+1)
	low := make([]int32, m.n+1)
	parent := make([]uint32, m.n+1)
	var out [][2]uint32
	timer := int32(0)
	type frame struct {
		v  uint32
		ei int
	}
	var stack []frame
	for s := uint32(1); int(s) <= m.n; s++ {
		if disc[s] != 0 {
			continue
		}
		timer++
		disc[s], low[s] = timer, timer
		stack = append(stack[:0], frame{v: s})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.ei < len(m.adj[f.v]) {
				to := m.adj[f.v][f.ei].to
				f.ei++
				if disc[to] == 0 {
					parent[to] = f.v
					timer++
					disc[to], low[to] = timer, timer
					stack = append(stack, frame{v: to})
				} else if to != parent[f.v] {
					if disc[to] < low[f.v] {
						low[f.v] = disc[to]
					}
				}
				continue
			}
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				pv := stack[len(stack)-1].v
				if low[f.v] < low[pv] {
					low[pv] = low[f.v]
				}
				if low[f.v] > disc[pv] {
					out = append(out, [2]uint32{pv, f.v})
				}
			}
		}
	}
	return out
}

// bridges deletes up to BridgeDeletes randomly chosen bridges of the
// current topology. Deleting one bridge can create or destroy others, but
// the set is computed once per stage — adversarial targeting, not an
// exhaustive cut enumeration.
func (m *model) bridges(p Plan) {
	if p.BridgeDeletes == 0 {
		return
	}
	cand := m.bridgeEdges()
	m.r.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	done := 0
	for _, e := range cand {
		if done >= p.BridgeDeletes {
			break
		}
		a, b := m.orientSmall(e[0], e[1])
		if m.del(a, b, "bridge", false) {
			done++
		}
	}
}

// treeDeletes deletes TreeEdgeDeletes randomly chosen modelled forest
// edges — every one forces a real repair.
func (m *model) treeDeletes(p Plan) {
	if p.TreeEdgeDeletes == 0 {
		return
	}
	cand := m.treeEdgeList()
	m.r.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	for i := 0; i < len(cand) && i < p.TreeEdgeDeletes; i++ {
		a, b := m.orientSmall(cand[i][0], cand[i][1])
		m.del(a, b, "tree", false)
	}
}

// treeEdgeList returns the modelled forest edges in deterministic
// (sorted-key) order — the tree map must never be ranged directly.
func (m *model) treeEdgeList() [][2]uint32 {
	keys := make([]uint64, 0, len(m.tree))
	for k := range m.tree {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([][2]uint32, len(keys))
	for i, k := range keys {
		out[i] = [2]uint32{uint32(k >> 32), uint32(k)}
	}
	return out
}

// hubDeletes deletes one forest edge incident to each of the
// highest-degree nodes (ties broken by ID for determinism).
func (m *model) hubDeletes(p Plan) {
	if p.HubDeletes == 0 {
		return
	}
	hubs := make([]uint32, m.n)
	for v := 1; v <= m.n; v++ {
		hubs[v-1] = uint32(v)
	}
	sort.Slice(hubs, func(i, j int) bool {
		di, dj := len(m.adj[hubs[i]]), len(m.adj[hubs[j]])
		if di != dj {
			return di > dj
		}
		return hubs[i] < hubs[j]
	})
	done := 0
	for _, v := range hubs {
		if done >= p.HubDeletes {
			break
		}
		for _, h := range m.adj[v] {
			if m.tree[edgeKey(v, h.to)] {
				a, b := m.orientSmall(v, h.to)
				m.del(a, b, "hub", false)
				done++
				break
			}
		}
	}
}

// background compiles the uniform random block (the legacy FaultScript
// workload) in seeded shuffled interleaving.
func (m *model) background(p Plan) {
	ops := make([]Op, 0, p.Deletes+p.Inserts+p.WeightChanges)
	for i := 0; i < p.Deletes; i++ {
		ops = append(ops, OpDelete)
	}
	for i := 0; i < p.Inserts; i++ {
		ops = append(ops, OpInsert)
	}
	for i := 0; i < p.WeightChanges; i++ {
		ops = append(ops, OpWeightChange)
	}
	m.r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for _, op := range ops {
		switch op {
		case OpDelete:
			if a, b, ok := m.pickEdge(); ok {
				a, b = m.orientSmall(a, b)
				m.del(a, b, "random", false)
			}
		case OpInsert:
			if a, b, ok := m.pickNonEdge(); ok {
				a, b = m.orientSmallComp(a, b)
				m.ins(a, b, m.r.Range(1, m.maxRaw), "random")
			}
		case OpWeightChange:
			if a, b, ok := m.pickEdge(); ok {
				a, b = m.orientSmall(a, b)
				raw := m.r.Range(1, m.maxRaw)
				m.setRaw(a, b, raw)
				m.events = append(m.events, Event{Op: OpWeightChange, A: a, B: b, Raw: raw, Stage: "random"})
			}
		}
	}
}

func (m *model) setRaw(a, b uint32, raw uint64) {
	for _, v := range [2][2]uint32{{a, b}, {b, a}} {
		adj := m.adj[v[0]]
		i := sort.Search(len(adj), func(i int) bool { return adj[i].to >= v[1] })
		if i < len(adj) && adj[i].to == v[1] {
			adj[i].raw = raw
		}
	}
}

// pickEdge draws a uniformly random surviving edge (via a random node with
// degree > 0), mirroring the harness's legacy pickLink.
func (m *model) pickEdge() (uint32, uint32, bool) {
	for attempt := 0; attempt < 16*m.n; attempt++ {
		v := uint32(m.r.Intn(m.n) + 1)
		if len(m.adj[v]) == 0 {
			continue
		}
		h := m.adj[v][m.r.Intn(len(m.adj[v]))]
		return v, h.to, true
	}
	return 0, 0, false
}

// sideSize counts the nodes reachable from a over modelled forest edges
// without crossing {a,b}, stopping at limit. Uses the shared BFS scratch.
func (m *model) sideSize(a, b uint32, limit int) int {
	m.queue = m.queue[:0]
	m.queue = append(m.queue, a)
	m.visited[a] = true
	for qi := 0; qi < len(m.queue) && len(m.queue) < limit; qi++ {
		v := m.queue[qi]
		for _, h := range m.adj[v] {
			if m.visited[h.to] || !m.tree[edgeKey(v, h.to)] {
				continue
			}
			if v == a && h.to == b {
				continue // do not cross the faulted edge itself
			}
			m.visited[h.to] = true
			m.queue = append(m.queue, h.to)
			if len(m.queue) >= limit {
				break
			}
		}
	}
	size := len(m.queue)
	for _, v := range m.queue {
		m.visited[v] = false
	}
	return size
}

// orientSideCap bounds the orientation probes: a side this large counts as
// "big", and probing stops.
const orientSideCap = 4096

// orientSmall orders a forest edge so the smaller side (up to the probe
// cap) comes first — the Event.A initiator contract.
func (m *model) orientSmall(a, b uint32) (uint32, uint32) {
	sa := m.sideSize(a, b, orientSideCap)
	if sa < orientSideCap {
		sb := m.sideSize(b, a, orientSideCap)
		if sb < sa {
			return b, a
		}
		return a, b
	}
	if m.sideSize(b, a, orientSideCap) < orientSideCap {
		return b, a
	}
	return a, b
}

// orientSmallComp orders an insert's endpoints so the one in the smaller
// modelled forest component (up to the probe cap) comes first: when the
// insert joins two trees, the repair's path probe then covers the small
// tree. Passing 0 as the excluded neighbor makes sideSize walk the whole
// component (node IDs are 1-based).
func (m *model) orientSmallComp(a, b uint32) (uint32, uint32) {
	sa := m.sideSize(a, 0, orientSideCap)
	if sa < orientSideCap {
		sb := m.sideSize(b, 0, orientSideCap)
		if sb < sa {
			return b, a
		}
		return a, b
	}
	if m.sideSize(b, 0, orientSideCap) < orientSideCap {
		return b, a
	}
	return a, b
}

// pickNonEdge draws a uniformly random absent edge.
func (m *model) pickNonEdge() (uint32, uint32, bool) {
	for attempt := 0; attempt < 16*m.n; attempt++ {
		a := uint32(m.r.Intn(m.n) + 1)
		b := uint32(m.r.Intn(m.n) + 1)
		if a == b || m.hasEdge(a, b) {
			continue
		}
		return a, b, true
	}
	return 0, 0, false
}

// heals re-inserts up to Heals edges from the partition/burst pool (with
// their original weights), in seeded shuffled order, skipping edges the
// background block already re-created.
func (m *model) heals(p Plan) {
	if p.Heals == 0 || len(m.healPool) == 0 {
		return
	}
	pool := append([]Event(nil), m.healPool...)
	m.r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	done := 0
	for _, ev := range pool {
		if done >= p.Heals {
			break
		}
		// Re-orient at emission time: earlier heals re-merge regions, so
		// the original region-side endpoint may sit in a huge component by
		// now.
		a, b := m.orientSmallComp(ev.A, ev.B)
		if m.ins(a, b, ev.Raw, "heal") {
			done++
		}
	}
}
