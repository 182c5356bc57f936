package main

import (
	"fmt"
	"runtime"
	"time"

	"kkt/internal/admit"
	"kkt/internal/congest"
	"kkt/internal/faultplan"
	"kkt/internal/graph"
	"kkt/internal/mst"
	"kkt/internal/rng"
	"kkt/internal/spanning"
	"kkt/internal/st"
	"kkt/internal/tree"
)

// simCost is the simulated cost of a trial's measured section: the paper's
// own measure, exact for a given workload and seed.
type simCost struct {
	Messages uint64
	Bits     uint64
	Rounds   int64
}

// memDelta is the Go runtime's allocation and GC activity over the
// measured section.
type memDelta struct {
	AllocBytes uint64
	Mallocs    uint64
	GCCycles   uint32
	GCPauseNs  uint64
}

// trialResult is one trial: wall time per layer call (seconds), the
// simulated cost and the layers' exact counts.
type trialResult struct {
	Seed uint64

	Trial, Setup, Run           float64
	Gen, NewNet, Attach         float64
	Kruskal, SetForest, Compile float64
	Validate                    float64

	Cost           simCost
	Phases         int
	Events         int
	Queue          admit.Stats
	StagedDrops    uint64
	AsyncConflicts uint64
	ByKind         map[string]congest.KindCount
	Mem            memDelta
}

// runTrial composes one trial from the layers' public entry points in the
// order harness.RunTrial uses — graph generator, congest.NewNetwork,
// tree.Attach, then mst.Build / st.Build / faultplan.Compile plus the
// admission queue, then the spanning check — timing each call from
// outside. tr is nil for an untraced trial; a non-nil tracer
// attaches its observer and launcher wrapper and records spans. An invalid
// forest, a protocol error or a panic is returned as an error.
func runTrial(w workload, seed uint64, tr *tracer) (res trialResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("trial panicked: %v", r)
		}
	}()
	res.Seed = seed
	// Start every trial from a collected heap, so one trial's garbage is
	// not charged to the next.
	runtime.GC()
	start := time.Now()

	r := rng.New(seed)
	gr := r.Split()
	var g *graph.Graph
	res.Gen = tr.layer("graph.gen", func() {
		g = graph.GNM(gr, w.N, 3*w.N, maxRaw, graph.UniformWeights(gr.Split(), maxRaw))
	})

	opts := []congest.Option{congest.WithSeed(seed)}
	if w.Async {
		opts = append(opts, congest.WithAsync(w.MaxDelay))
	}
	if tr != nil {
		opts = append(opts, congest.WithObserver(tr.obs))
	}
	var nw *congest.Network
	res.NewNet = tr.layer("congest.newnet", func() { nw = congest.NewNetwork(g, opts...) })

	var (
		pr *tree.Protocol
		sp *st.Protocol
	)
	res.Attach = tr.layer("tree.attach", func() {
		pr = tree.Attach(nw)
		if w.Algo == algoSTBuild {
			sp = st.Attach(nw, pr)
		}
	})

	var (
		refForest []int
		events    []faultplan.Event
	)
	if w.Algo == algoMSTStorm {
		res.Kruskal = tr.layer("spanning.kruskal", func() { refForest = spanning.Kruskal(g) })
		res.SetForest = tr.layer("congest.setforest", func() {
			forest := make([][2]congest.NodeID, len(refForest))
			for i, ei := range refForest {
				e := g.Edge(ei)
				forest[i] = [2]congest.NodeID{congest.NodeID(e.A), congest.NodeID(e.B)}
			}
			nw.SetForest(forest)
		})
		res.Compile = tr.layer("faultplan.compile", func() { events = faultplan.Compile(*w.Plan, g, refForest, seed) })
		res.Events = len(events)
	}
	res.Setup = time.Since(start).Seconds()

	before := readMem()
	var (
		forest [][2]congest.NodeID
		final  = g
		rerr   error
	)
	switch w.Algo {
	case algoMSTBuild:
		var br mst.BuildResult
		res.Run = tr.layer("mst.build", func() { br, rerr = mst.Build(nw, pr, mst.DefaultBuild(seed)) })
		res.Cost = simCost{br.Messages, br.Bits, br.Rounds}
		res.Phases, forest = len(br.Phases), br.Forest
		res.ByKind = nw.Counters().ByKind
	case algoSTBuild:
		var br st.BuildResult
		res.Run = tr.layer("st.build", func() { br, rerr = st.Build(nw, pr, sp, st.DefaultBuild(seed)) })
		res.Cost = simCost{br.Messages, br.Bits, br.Rounds}
		res.Phases, forest = len(br.Phases), br.Forest
		res.ByKind = nw.Counters().ByKind
	case algoMSTStorm:
		base, baseTime := nw.Counters(), nw.Now()
		res.Run = tr.layer("admit.drain", func() { res.Queue, rerr = drain(w, seed, nw, pr, events, tr) })
		delta := nw.CountersSince(base)
		res.Cost = simCost{delta.Messages, delta.Bits, nw.Now() - baseTime}
		res.ByKind = delta.ByKind
	default:
		return res, fmt.Errorf("unknown algorithm %q", w.Algo)
	}
	res.Mem = memSince(before, readMem())
	if rerr != nil {
		return res, rerr
	}
	res.StagedDrops = nw.StagedDrops()
	res.AsyncConflicts = nw.AsyncConflicts()

	var verr error
	res.Validate = tr.layer("spanning.validate", func() {
		if w.Algo == algoMSTStorm {
			// The storm mutated the topology: check against the live one.
			final, forest = liveGraph(nw)
		}
		idx := forestIndices(final, forest)
		if w.Algo == algoSTBuild {
			verr = spanning.IsSpanningForest(final, idx)
		} else {
			verr = spanning.IsMSF(final, idx)
		}
	})
	res.Trial = time.Since(start).Seconds()
	if verr != nil {
		return res, fmt.Errorf("invalid forest: %w", verr)
	}
	return res, nil
}

// drain runs the compiled events through the admission queue wave by wave
// until none is pending.
func drain(w workload, seed uint64, nw *congest.Network, pr *tree.Protocol, events []faultplan.Event, tr *tracer) (admit.Stats, error) {
	q := admit.NewQueue(admit.Config{Wave: w.Wave, Seed: seed})
	q.Push(events...)
	var l admit.Launcher = mst.NewStormLauncher(nw, pr, mst.DefaultRepair(seed))
	if tr != nil {
		l = &timedLauncher{inner: l, t: tr}
	}
	for q.Pending() > 0 {
		t0 := time.Now()
		n, err := q.RunWave(nw, l)
		if err != nil {
			return q.Stats(), err
		}
		tr.wave(t0, n)
	}
	return q.Stats(), nil
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before, after runtime.MemStats) memDelta {
	return memDelta{
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Mallocs:    after.Mallocs - before.Mallocs,
		GCCycles:   after.NumGC - before.NumGC,
		GCPauseNs:  after.PauseTotalNs - before.PauseTotalNs,
	}
}

// liveGraph rebuilds a graph from the network's live topology (which a
// storm mutates away from the generated graph) and returns it with the
// marked forest.
func liveGraph(nw *congest.Network) (*graph.Graph, [][2]congest.NodeID) {
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

// forestIndices maps endpoint pairs to edge indices of g; unknown edges
// map to -1, which the spanning checks reject.
func forestIndices(g *graph.Graph, forest [][2]congest.NodeID) []int {
	idx := make([]int, len(forest))
	for i, e := range forest {
		idx[i] = g.EdgeIndex(uint32(e[0]), uint32(e[1]))
	}
	return idx
}
