package admit_test

import (
	"reflect"
	"testing"

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

// storm builds a small seeded storm: a GNM graph with its reference forest
// marked (Kruskal MSF when weighted, BFS forest otherwise), a compiled
// fault plan against it, and the matching storm launcher.
func storm(seed uint64, weighted bool) (*congest.Network, admit.Launcher, []faultplan.Event) {
	r := rng.New(seed)
	g := graph.GNM(r, 40, 120, 64, graph.UniformWeights(r.Split(), 64))
	nw := congest.NewNetwork(g, congest.WithSeed(seed))
	pr := tree.Attach(nw)
	ref := spanning.BFSForest(g)
	if weighted {
		ref = spanning.Kruskal(g)
	}
	forest := make([][2]congest.NodeID, len(ref))
	for i, ei := range ref {
		e := g.Edge(ei)
		forest[i] = [2]congest.NodeID{congest.NodeID(e.A), congest.NodeID(e.B)}
	}
	nw.SetForest(forest)
	plan := faultplan.Plan{
		Partitions: 1, PartitionSize: 6, Heals: 4,
		TreeEdgeDeletes: 6, Deletes: 4, Inserts: 4, WeightChanges: 4,
	}
	events := faultplan.Compile(plan, g, ref, seed)
	var l admit.Launcher
	if weighted {
		l = mst.NewStormLauncher(nw, pr, mst.DefaultRepair(seed))
	} else {
		l = st.NewStormLauncher(nw, pr, st.DefaultRepair(seed))
	}
	return nw, l, events
}

// TestSuspendEveryWaveMatchesDrain: draining a queue straight through and
// suspending it after every wave — resuming from the captured state each
// time — must end in the same Stats and the same marked forest. The
// suspension record carries the whole admission schedule.
func TestSuspendEveryWaveMatchesDrain(t *testing.T) {
	const seed = 0xad417
	for _, weighted := range []bool{true, false} {
		cfg := admit.Config{Wave: 3, Seed: seed}

		refNW, refL, events := storm(seed, weighted)
		ref := admit.NewQueue(cfg)
		ref.Push(events...)
		if err := ref.Drain(refNW, refL); err != nil {
			t.Fatalf("weighted=%v: drain: %v", weighted, err)
		}
		want := ref.Stats()
		if want.Waves < 2 || want.Retries == 0 {
			t.Fatalf("weighted=%v: storm too easy to test suspension (waves=%d retries=%d)", weighted, want.Waves, want.Retries)
		}

		nw, l, events2 := storm(seed, weighted)
		q := admit.NewQueue(cfg)
		q.Push(events2...)
		for q.Pending() > 0 {
			if _, err := q.RunWave(nw, l); err != nil {
				t.Fatalf("weighted=%v: wave: %v", weighted, err)
			}
			q = admit.ResumeQueue(cfg, q.Suspend())
		}
		if got := q.Stats(); !reflect.DeepEqual(got, want) {
			t.Errorf("weighted=%v: stats diverged:\n suspended %+v\n drained   %+v", weighted, got, want)
		}
		if got, want := nw.MarkedEdges(), refNW.MarkedEdges(); !reflect.DeepEqual(got, want) {
			t.Errorf("weighted=%v: marked forest diverged: %d vs %d edges", weighted, len(got), len(want))
		}
	}
}
