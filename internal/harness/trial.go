package harness

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"kkt/internal/congest"
	"kkt/internal/flood"
	"kkt/internal/ghs"
	"kkt/internal/graph"
	"kkt/internal/mst"
	"kkt/internal/rng"
	"kkt/internal/spanning"
	"kkt/internal/st"
	"kkt/internal/tree"
)

// trialSeed derives the seed of one trial from the base seed, the
// scenario name and the trial index (FNV-style mix + splitmix64 finalizer,
// never zero).
func trialSeed(base uint64, name string, trial int) uint64 {
	h := base ^ 0xcbf29ce484222325
	for _, b := range []byte(name) {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	h ^= (uint64(trial) + 1) * 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	if h == 0 {
		h = 1
	}
	return h
}

// buildGraph constructs the scenario topology from the trial's stream.
func buildGraph(s Spec, r *rng.RNG) *graph.Graph {
	w := graph.UniformWeights(r.Split(), s.MaxRaw)
	switch s.Family {
	case FamilyGNM:
		return graph.GNM(r, s.N, s.M, s.MaxRaw, w)
	case FamilyRing:
		return graph.Ring(s.N, s.MaxRaw, w)
	case FamilyGrid:
		side := int(math.Sqrt(float64(s.N)))
		return graph.Grid(side, side, s.MaxRaw, w)
	case FamilyExpander:
		return graph.Expander(r, s.N, s.Degree, s.MaxRaw, w)
	case FamilyComplete:
		return graph.Complete(s.N, s.MaxRaw, w)
	case FamilyTree:
		return graph.RandomTree(r, s.N, s.MaxRaw, w)
	case FamilyPowerLaw:
		return graph.PreferentialAttachment(r, s.N, s.Degree, s.MaxRaw, w)
	case FamilyGeometric:
		return graph.RandomGeometric(r, s.N, s.Radius, s.MaxRaw, w)
	case FamilyHypercube:
		// Deterministic shape; only the weight stream is seeded.
		return graph.HypercubeN(s.N, s.MaxRaw, w)
	default:
		panic(fmt.Sprintf("harness: unknown family %q", s.Family))
	}
}

// RunTrial executes one unobserved seeded trial of the scenario; see
// RunTrialContext.
func RunTrial(spec Spec, seed uint64) (TrialMetrics, map[string]congest.KindCount, error) {
	return RunTrialContext(nil, spec, seed, nil)
}

// RunTrialContext executes one seeded trial of the scenario and returns
// its metrics plus the per-kind traffic breakdown; the seed alone
// identifies the trial. obs, when non-nil, is a passive trace
// observer attached to the trial's network: metrics are byte-identical
// with it on or off (see congest.Observer). ctx, when non-nil, is plumbed
// into the trial's engine: once it is done, the trial aborts at the next
// delivery batch with a structured congest.WatchdogError instead of
// running to completion. Cancellation is the one wall-clock escape hatch —
// a cancelled trial reports an error, never metrics, so it cannot perturb
// seeded reports. Specs must already be validated (registry scenarios
// are). Protocol panics are converted to errors so one bad trial cannot
// take down a bench sweep.
func RunTrialContext(ctx context.Context, spec Spec, seed uint64, obs congest.Observer) (m TrialMetrics, byKind map[string]congest.KindCount, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("harness: trial panicked: %v", r)
		}
	}()
	s := spec.withDefaults()
	heapBefore := heapSysNow()
	r := rng.New(seed)
	g := buildGraph(s, r.Split())

	var opts []congest.Option
	opts = append(opts, congest.WithSeed(seed))
	if s.Sched == SchedAsync {
		opts = append(opts, congest.WithAsync(s.MaxDelay))
	}
	if obs != nil {
		opts = append(opts, congest.WithObserver(obs))
	}
	if s.Watchdog != nil {
		opts = append(opts, congest.WithWatchdog(congest.Watchdog{
			MaxTime:     s.Watchdog.MaxTime,
			StallTime:   s.Watchdog.StallTime,
			SessionTime: s.Watchdog.SessionTime,
		}))
	}
	if ctx != nil {
		opts = append(opts, congest.WithContext(ctx))
	}
	nw := congest.NewNetwork(g, opts...)
	pr := tree.Attach(nw)

	m = TrialMetrics{Seed: seed, GraphEdges: g.M()}
	switch s.Algo {
	case AlgoMSTBuildAdaptive, AlgoMSTBuildFixed:
		cfg := mst.DefaultBuild(seed)
		if s.Algo == AlgoMSTBuildFixed {
			cfg.Policy = mst.Fixed
			cfg.C = 1 // the fixed budget is already worst-case; keep it affordable
		}
		res, rerr := mst.Build(nw, pr, cfg)
		if rerr != nil {
			return m, nil, rerr
		}
		m.Messages, m.Bits, m.Time = res.Messages, res.Bits, res.Rounds
		m.Phases = len(res.Phases)
		m.PhaseCosts = phaseCostsMST(res.Phases)
		m.ForestEdges = len(res.Forest)
		m.Valid = spanning.IsMSF(g, forestIndices(g, res.Forest)) == nil
	case AlgoGHS:
		gp := ghs.Attach(nw)
		res, rerr := ghs.Build(nw, pr, gp)
		if rerr != nil {
			return m, nil, rerr
		}
		m.Messages, m.Bits, m.Time = res.Messages, res.Bits, res.Rounds
		m.Phases = res.Phases
		m.PhaseCosts = phaseCostsGHS(res.PhaseStats)
		m.ForestEdges = len(res.Forest)
		m.Valid = spanning.IsMSF(g, forestIndices(g, res.Forest)) == nil
	case AlgoSTBuild:
		sp := st.Attach(nw, pr)
		res, rerr := st.Build(nw, pr, sp, st.DefaultBuild(seed))
		if rerr != nil {
			return m, nil, rerr
		}
		m.Messages, m.Bits, m.Time = res.Messages, res.Bits, res.Rounds
		m.Phases = len(res.Phases)
		m.PhaseCosts = phaseCostsST(res.Phases)
		m.ForestEdges = len(res.Forest)
		m.Valid = spanning.IsSpanningForest(g, forestIndices(g, res.Forest)) == nil
	case AlgoFlood:
		fp := flood.Attach(nw)
		res, rerr := fp.Build()
		if rerr != nil {
			return m, nil, rerr
		}
		m.Messages, m.Bits, m.Time = res.Messages, res.Bits, res.Rounds
		m.ForestEdges = len(res.Forest)
		m.Valid = spanning.IsSpanningForest(g, forestIndices(g, res.Forest)) == nil
	case AlgoMSTRepair:
		if s.Plan != nil {
			return runConcurrentStorm(s, nw, pr, g, seed, true, heapBefore)
		}
		return runRepairStorm(s, nw, pr, g, r, seed, true, heapBefore)
	case AlgoSTRepair:
		if s.Plan != nil {
			return runConcurrentStorm(s, nw, pr, g, seed, false, heapBefore)
		}
		return runRepairStorm(s, nw, pr, g, r, seed, false, heapBefore)
	case AlgoDebugStall:
		return m, nil, runDebugStall(nw)
	default:
		return m, nil, fmt.Errorf("harness: unknown algorithm %q", s.Algo)
	}
	m.StagedDrops = nw.StagedDrops()
	m.AsyncConflicts = nw.AsyncConflicts()
	captureFootprint(&m, nw, heapBefore)
	return m, nw.Counters().ByKind, nil
}

// phaseCostsMST/phaseCostsST/phaseCostsGHS map the protocol layers'
// per-phase statistics onto the serialized timeline.
func phaseCostsMST(phases []mst.PhaseStat) []PhaseCost {
	out := make([]PhaseCost, len(phases))
	for i, ps := range phases {
		out[i] = PhaseCost{Phase: i + 1, Fragments: ps.Fragments, Merges: ps.Merges,
			Messages: ps.Messages, Bits: ps.Bits, Rounds: ps.Rounds, Classes: ps.Classes}
	}
	return out
}

func phaseCostsST(phases []st.PhaseStat) []PhaseCost {
	out := make([]PhaseCost, len(phases))
	for i, ps := range phases {
		out[i] = PhaseCost{Phase: i + 1, Fragments: ps.Fragments, Merges: ps.Merges,
			Messages: ps.Messages, Bits: ps.Bits, Rounds: ps.Rounds, Classes: ps.Classes}
	}
	return out
}

func phaseCostsGHS(phases []ghs.PhaseStat) []PhaseCost {
	out := make([]PhaseCost, len(phases))
	for i, ps := range phases {
		out[i] = PhaseCost{Phase: i + 1, Fragments: ps.Fragments, Merges: ps.Merges,
			Messages: ps.Messages, Bits: ps.Bits, Rounds: ps.Rounds, Classes: ps.Classes}
	}
	return out
}

// heapSysNow samples the Go heap footprint (runtime.MemStats.HeapSys).
func heapSysNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapSys
}

// captureFootprint records the trial's driver and heap high-water marks —
// the non-serialized TrialMetrics fields gating the continuation driver
// model's memory claim. HeapSysMB is the trial's own heap growth: the
// delta from the before-trial sample, clamped at zero (a shrinking heap —
// scavenged pages returned mid-run — reports 0, not an underflowed value).
func captureFootprint(m *TrialMetrics, nw *congest.Network, heapBefore uint64) {
	ds := nw.DriverStats()
	m.PeakDriverGoroutines = ds.PeakGoroutines
	m.PeakDriverTasks = ds.PeakTasks
	m.PeakLiveDrivers = ds.PeakLive
	if after := heapSysNow(); after > heapBefore {
		m.HeapSysMB = (after - heapBefore) >> 20
	}
}

// runRepairStorm seeds the network with the reference forest (setup is
// uncharged, like the paper's "a spanning forest is maintained"
// precondition), then applies the fault script in seeded random order and
// meters only the repair traffic.
func runRepairStorm(s Spec, nw *congest.Network, pr *tree.Protocol, g *graph.Graph, r *rng.RNG, seed uint64, weighted bool, heapBefore uint64) (TrialMetrics, map[string]congest.KindCount, error) {
	m := TrialMetrics{Seed: seed, GraphEdges: g.M(), Actions: make(map[string]int)}

	var refForest []int
	if weighted {
		refForest = spanning.Kruskal(g)
	} else {
		refForest = spanning.BFSForest(g)
	}
	forest := make([][2]congest.NodeID, len(refForest))
	for i, ei := range refForest {
		e := g.Edge(ei)
		forest[i] = [2]congest.NodeID{congest.NodeID(e.A), congest.NodeID(e.B)}
	}
	nw.SetForest(forest)

	// The measured section starts after setup.
	base := nw.Counters()
	baseTime := nw.Now()

	ops := make([]int, 0, s.Faults.Total())
	const (
		opDelete = iota
		opInsert
		opWeightChange
	)
	for i := 0; i < s.Faults.Deletes; i++ {
		ops = append(ops, opDelete)
	}
	for i := 0; i < s.Faults.Inserts; i++ {
		ops = append(ops, opInsert)
	}
	for i := 0; i < s.Faults.WeightChanges; i++ {
		ops = append(ops, opWeightChange)
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })

	for opIdx, op := range ops {
		opSeed := seed ^ uint64(opIdx+1)*0xd6e8feb86659fd93
		switch op {
		case opDelete:
			a, b, ok := pickLink(nw, r)
			if !ok {
				m.Actions["skipped"]++
				continue
			}
			var rep repairOutcome
			var rerr error
			if weighted {
				rep, rerr = asOutcome(mst.Delete(nw, pr, a, b, mst.DefaultRepair(opSeed)))
			} else {
				rep, rerr = asSTOutcome(st.Delete(nw, pr, a, b, st.DefaultRepair(opSeed)))
			}
			if rerr != nil {
				return m, nil, rerr
			}
			m.Actions[rep.action]++
		case opInsert:
			a, b, ok := pickNonLink(nw, r)
			if !ok {
				m.Actions["skipped"]++
				continue
			}
			var rep repairOutcome
			var rerr error
			if weighted {
				raw := r.Range(1, nw.MaxRaw())
				rep, rerr = asOutcome(mst.Insert(nw, pr, a, b, raw, mst.DefaultRepair(opSeed)))
			} else {
				rep, rerr = asSTOutcome(st.Insert(nw, pr, a, b, st.DefaultRepair(opSeed)))
			}
			if rerr != nil {
				return m, nil, rerr
			}
			m.Actions[rep.action]++
		case opWeightChange:
			a, b, ok := pickLink(nw, r)
			if !ok {
				m.Actions["skipped"]++
				continue
			}
			raw := r.Range(1, nw.MaxRaw())
			rep, rerr := asOutcome(mst.WeightChange(nw, pr, a, b, raw, mst.DefaultRepair(opSeed)))
			if rerr != nil {
				return m, nil, rerr
			}
			m.Actions[rep.action]++
		}
	}

	delta := nw.CountersSince(base)
	m.Messages, m.Bits = delta.Messages, delta.Bits
	m.Time = nw.Now() - baseTime
	m.StagedDrops = nw.StagedDrops()
	m.AsyncConflicts = nw.AsyncConflicts()
	captureFootprint(&m, nw, heapBefore)

	// Reference check against the final (mutated) topology.
	final, marked := graphFromNetwork(nw)
	m.ForestEdges = len(marked)
	idx := forestIndices(final, marked)
	if weighted {
		m.Valid = spanning.IsMSF(final, idx) == nil
	} else {
		m.Valid = spanning.IsSpanningForest(final, idx) == nil
	}
	return m, delta.ByKind, nil
}

// repairOutcome normalizes mst.Report / st.Report for tallying.
type repairOutcome struct{ action string }

func asOutcome(rep mst.Report, err error) (repairOutcome, error) {
	return repairOutcome{action: rep.Action.String()}, err
}

func asSTOutcome(rep st.Report, err error) (repairOutcome, error) {
	return repairOutcome{action: rep.Action.String()}, err
}

// pickLink draws a uniformly random node with at least one link, then a
// uniformly random incident link. It fails only if the network has no
// links left.
func pickLink(nw *congest.Network, r *rng.RNG) (congest.NodeID, congest.NodeID, bool) {
	for attempt := 0; attempt < 16*nw.N(); attempt++ {
		v := congest.NodeID(r.Intn(nw.N()) + 1)
		node := nw.Node(v)
		if node.Degree() == 0 {
			continue
		}
		he := node.Edges[r.Intn(node.Degree())]
		return v, he.Neighbor, true
	}
	return 0, 0, false
}

// pickNonLink draws a uniformly random absent link. It fails on (nearly)
// complete graphs after a bounded number of attempts.
func pickNonLink(nw *congest.Network, r *rng.RNG) (congest.NodeID, congest.NodeID, bool) {
	for attempt := 0; attempt < 16*nw.N(); attempt++ {
		a := congest.NodeID(r.Intn(nw.N()) + 1)
		b := congest.NodeID(r.Intn(nw.N()) + 1)
		if a == b || nw.Node(a).EdgeTo(b) != nil {
			continue
		}
		return a, b, true
	}
	return 0, 0, false
}

// graphFromNetwork reconstructs a graph.Graph from the network's live
// topology (which repair storms mutate away from the generated graph) and
// returns it with the marked forest.
func graphFromNetwork(nw *congest.Network) (*graph.Graph, [][2]congest.NodeID) {
	g := graph.MustNew(nw.N(), nw.MaxRaw())
	for v := 1; v <= nw.N(); v++ {
		node := nw.Node(congest.NodeID(v))
		for i := range node.Edges {
			he := &node.Edges[i]
			if uint32(he.Neighbor) > uint32(v) {
				g.MustAddEdge(uint32(v), uint32(he.Neighbor), he.Raw)
			}
		}
	}
	return g, nw.MarkedEdges()
}

// forestIndices maps endpoint pairs to edge indices in g; unknown edges
// map to -1 (which the spanning checks reject).
func forestIndices(g *graph.Graph, forest [][2]congest.NodeID) []int {
	idx := make([]int, len(forest))
	for i, e := range forest {
		idx[i] = g.EdgeIndex(uint32(e[0]), uint32(e[1]))
	}
	return idx
}
