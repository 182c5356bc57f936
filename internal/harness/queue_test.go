package harness

import (
	"encoding/json"
	"reflect"
	"testing"

	"kkt/internal/admit"
	"kkt/internal/congest"
	"kkt/internal/faultplan"
	"kkt/internal/mst"
	"kkt/internal/rng"
	"kkt/internal/spanning"
	"kkt/internal/tree"
)

// stormNetwork builds one seeded (network, protocol, events) triple for
// the queue equivalence tests: a GNM graph with its Kruskal MSF marked and
// a compiled fault plan against it.
func stormNetwork(t *testing.T, seed uint64) (*congest.Network, *tree.Protocol, []faultplan.Event) {
	t.Helper()
	spec := Spec{
		Name:   "queue-test",
		Family: FamilyGNM, N: 40,
		Sched: SchedSync,
		Algo:  AlgoMSTRepair,
	}
	s := spec.withDefaults()
	r := rng.New(seed)
	g := buildGraph(s, r.Split())
	nw := congest.NewNetwork(g, congest.WithSeed(seed))
	pr := tree.Attach(nw)
	refForest := spanning.Kruskal(g)
	forest := make([][2]congest.NodeID, len(refForest))
	for i, ei := range refForest {
		e := g.Edge(ei)
		forest[i] = [2]congest.NodeID{congest.NodeID(e.A), congest.NodeID(e.B)}
	}
	nw.SetForest(forest)
	plan := faultplan.Plan{
		Partitions: 1, PartitionSize: 6, Heals: 4,
		TreeEdgeDeletes: 4, Deletes: 4, Inserts: 4, WeightChanges: 4,
	}
	return nw, pr, faultplan.Compile(plan, g, refForest, seed)
}

// TestQueueSuspendResumeEquivalence drives the same compiled event list
// through admit.Run (the reference) and through an admit.Queue that is
// suspended and resumed via its serialized QueueState after every wave.
// Final stats, actions and the marked forest must be identical: the
// suspension record captures the complete admission schedule.
func TestQueueSuspendResumeEquivalence(t *testing.T) {
	const seed = 0x5eed
	cfg := admit.Config{Wave: 4, Seed: seed}

	refNW, refPR, events := stormNetwork(t, seed)
	refStats, err := admit.Run(refNW, events, mst.NewStormLauncher(refNW, refPR, mst.DefaultRepair(seed)), cfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	nw, pr, events2 := stormNetwork(t, seed)
	if !reflect.DeepEqual(events, events2) {
		t.Fatal("fault plan compilation is not deterministic")
	}
	l := mst.NewStormLauncher(nw, pr, mst.DefaultRepair(seed))
	q := admit.NewQueue(cfg)
	q.Push(events2...)
	for q.Pending() > 0 {
		if _, err := q.RunWave(nw, l); err != nil {
			t.Fatalf("wave: %v", err)
		}
		// Round-trip the suspension record through JSON — the checkpoint
		// path — and resume from it.
		blob, err := json.Marshal(q.Suspend())
		if err != nil {
			t.Fatalf("marshal queue state: %v", err)
		}
		var st admit.QueueState
		if err := json.Unmarshal(blob, &st); err != nil {
			t.Fatalf("unmarshal queue state: %v", err)
		}
		q = admit.ResumeQueue(cfg, st)
	}

	if got, want := q.Stats(), refStats; !reflect.DeepEqual(got, want) {
		t.Errorf("stats diverged:\n resumed   %+v\n reference %+v", got, want)
	}
	if got, want := nw.MarkedEdges(), refNW.MarkedEdges(); !reflect.DeepEqual(got, want) {
		t.Errorf("marked forest diverged: %d vs %d edges", len(got), len(want))
	}
}
