package mst

import (
	"testing"

	"kkt/internal/congest"
	"kkt/internal/graph"
	"kkt/internal/rng"
	"kkt/internal/spanning"
	"kkt/internal/tree"
)

// repairRec records the repair brackets an observer sees.
type repairRec struct {
	starts []string
	dones  []repairDone
}

type repairDone struct {
	op, action string
	messages   uint64
}

func (r *repairRec) RoundEnd(int64, uint64, uint64, []congest.KindCount, []uint64) {}
func (r *repairRec) SessionOpen(uint64, int64)                                     {}
func (r *repairRec) SessionDone(uint64, int64, bool)                               {}
func (r *repairRec) PhaseStart(string, int, int, int64)                            {}
func (r *repairRec) PhaseEnd(string, int, int64, congest.PhaseCosts)               {}
func (r *repairRec) Count(string, uint64)                                          {}
func (r *repairRec) RepairStart(op string, _ int64)                                { r.starts = append(r.starts, op) }
func (r *repairRec) RepairDone(op, action string, _, _ int64, messages, _ uint64) {
	r.dones = append(r.dones, repairDone{op, action, messages})
}

// TestRepairObserverBracketsEveryOp: every single-op repair call —
// including each no-op path, the equal-weight WeightChange among them —
// emits exactly one RepairStart/RepairDone pair whose outcome and cost
// match the returned Report, so observer repair counts equal the actions
// a trial tallies.
func TestRepairObserverBracketsEveryOp(t *testing.T) {
	r := rng.New(31)
	g := graph.GNM(r, 16, 40, 1000, graph.UniformWeights(r, 1000))
	rec := &repairRec{}
	nw := congest.NewNetwork(g, congest.WithAsync(4), congest.WithSeed(31), congest.WithObserver(rec))
	pr := tree.Attach(nw)
	var forest [][2]congest.NodeID
	inMSF := make(map[int]bool)
	for _, ei := range spanning.Kruskal(g) {
		e := g.Edge(ei)
		forest = append(forest, [2]congest.NodeID{congest.NodeID(e.A), congest.NodeID(e.B)})
		inMSF[ei] = true
	}
	nw.SetForest(forest)
	var treeEdges, nonTree []graph.Edge
	for i, e := range g.Edges() {
		if inMSF[i] {
			treeEdges = append(treeEdges, e)
		} else {
			nonTree = append(nonTree, e)
		}
	}
	id := func(v uint32) congest.NodeID { return congest.NodeID(v) }

	ops := []struct {
		name, op string
		run      func() (Report, error)
	}{
		{"delete non-tree", "mst.delete", func() (Report, error) {
			return Delete(nw, pr, id(nonTree[0].A), id(nonTree[0].B), DefaultRepair(1))
		}},
		{"delete tree", "mst.delete", func() (Report, error) {
			return Delete(nw, pr, id(treeEdges[0].A), id(treeEdges[0].B), DefaultRepair(2))
		}},
		{"insert", "mst.insert", func() (Report, error) {
			return Insert(nw, pr, id(treeEdges[0].A), id(treeEdges[0].B), 1, DefaultRepair(3))
		}},
		{"reweight equal", "mst.reweight", func() (Report, error) {
			he := nw.Node(id(nonTree[1].A)).EdgeTo(id(nonTree[1].B))
			return WeightChange(nw, pr, id(nonTree[1].A), id(nonTree[1].B), he.Raw, DefaultRepair(4))
		}},
		{"reweight tree up", "mst.reweight", func() (Report, error) {
			return WeightChange(nw, pr, id(treeEdges[1].A), id(treeEdges[1].B), 1000, DefaultRepair(5))
		}},
		{"reweight non-tree down", "mst.reweight", func() (Report, error) {
			return WeightChange(nw, pr, id(nonTree[2].A), id(nonTree[2].B), 1, DefaultRepair(6))
		}},
		{"reweight non-tree up", "mst.reweight", func() (Report, error) {
			return WeightChange(nw, pr, id(nonTree[3].A), id(nonTree[3].B), 1000, DefaultRepair(7))
		}},
	}
	for _, tc := range ops {
		rec.starts, rec.dones = nil, nil
		rep, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(rec.starts) != 1 || rec.starts[0] != tc.op {
			t.Errorf("%s: RepairStart calls %v, want exactly [%s]", tc.name, rec.starts, tc.op)
		}
		want := repairDone{tc.op, rep.Action.String(), rep.Messages}
		if len(rec.dones) != 1 || rec.dones[0] != want {
			t.Errorf("%s: RepairDone calls %+v, want exactly [%+v]", tc.name, rec.dones, want)
		}
	}
}
