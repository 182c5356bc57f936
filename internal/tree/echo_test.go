package tree

import (
	"reflect"
	"testing"

	"kkt/internal/congest"
	"kkt/internal/graph"
	"kkt/internal/rng"
)

// pathMax is the boxed echo of pathMaxSpec.
type pathMax struct {
	found bool
	max   uint64
}

// pathMaxSpec folds, at each node, the heaviest raw weight on the tree
// path down to target: a child that found the target extends its maximum
// by the connecting edge, which the fold looks up from ChildEcho.From.
func pathMaxSpec(target congest.NodeID) *Spec {
	return &Spec{
		DownBits: 32,
		UpBits:   65,
		Local: func(node *congest.NodeState, down any) any {
			return pathMax{found: node.ID == target}
		},
		Combine: func(node *congest.NodeState, down, acc any, c ChildEcho) any {
			cm := c.Value.(pathMax)
			if !cm.found {
				return acc
			}
			return pathMax{found: true, max: max(cm.max, node.EdgeTo(c.From).Raw)}
		},
	}
}

// wantPathMax walks the tree g from root and returns the heaviest raw
// weight on the path to target.
func wantPathMax(g *graph.Graph, root, target congest.NodeID) uint64 {
	adj := make([][]graph.Edge, g.N+1)
	for _, e := range g.Edges() {
		adj[e.A] = append(adj[e.A], e)
		adj[e.B] = append(adj[e.B], e)
	}
	var walk func(v, parent uint32, best uint64) (uint64, bool)
	walk = func(v, parent uint32, best uint64) (uint64, bool) {
		if congest.NodeID(v) == target {
			return best, true
		}
		for _, e := range adj[v] {
			w := e.A ^ e.B ^ v
			if w == parent {
				continue
			}
			if m, ok := walk(w, v, max(best, e.Raw)); ok {
				return m, true
			}
		}
		return 0, false
	}
	m, _ := walk(uint32(root), 0, 0)
	return m
}

// boxedEchoes runs a sum and a path-max broadcast-and-echo over the whole
// tree g and returns both results plus, per node, the order in which its
// children's sum echoes arrived.
func boxedEchoes(t *testing.T, g *graph.Graph, root, target congest.NodeID, opts ...congest.Option) (uint64, pathMax, map[congest.NodeID][]congest.NodeID) {
	t.Helper()
	nw := congest.NewNetwork(g, opts...)
	var forest [][2]congest.NodeID
	for _, e := range g.Edges() {
		forest = append(forest, [2]congest.NodeID{congest.NodeID(e.A), congest.NodeID(e.B)})
	}
	nw.SetForest(forest)
	pr := Attach(nw)
	order := make(map[congest.NodeID][]congest.NodeID)
	sum := sumSpec()
	fold := sum.Combine
	sum.Combine = func(node *congest.NodeState, down, acc any, c ChildEcho) any {
		order[node.ID] = append(order[node.ID], c.From)
		return fold(node, down, acc, c)
	}
	var total uint64
	var pm pathMax
	nw.Spawn("be", func(p *congest.Proc) error {
		v, err := p.Await(pr.StartBroadcastEcho(root, sum))
		if err != nil {
			return err
		}
		total = v.(uint64)
		v, err = p.Await(pr.StartBroadcastEcho(root, pathMaxSpec(target)))
		if err != nil {
			return err
		}
		pm = v.(pathMax)
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	return total, pm, order
}

// TestBoxedFoldAgreesAcrossSchedulers: boxed echoes fold in arrival order,
// which the async scheduler's random delays reshuffle. On random trees the
// sum and path-max results must not move, while the arrival order at some
// node must — otherwise the test would not exercise the fold contract.
func TestBoxedFoldAgreesAcrossSchedulers(t *testing.T) {
	reordered := false
	for seed := uint64(1); seed <= 6; seed++ {
		r := rng.New(seed)
		const n = 40
		g := graph.RandomTree(r, n, 1000, graph.UniformWeights(r.Split(), 1000))
		root := congest.NodeID(1 + r.Uint64n(n))
		target := congest.NodeID(1 + r.Uint64n(n))
		wantMax := wantPathMax(g, root, target)

		syncSum, syncPM, syncOrder := boxedEchoes(t, g, root, target)
		asyncSum, asyncPM, asyncOrder := boxedEchoes(t, g, root, target, congest.WithAsync(8), congest.WithSeed(seed))
		for _, run := range []struct {
			name string
			sum  uint64
			pm   pathMax
		}{{"sync", syncSum, syncPM}, {"async", asyncSum, asyncPM}} {
			if want := uint64(n*(n+1)) / 2; run.sum != want {
				t.Errorf("seed %d %s: sum = %d, want %d", seed, run.name, run.sum, want)
			}
			if !run.pm.found || run.pm.max != wantMax {
				t.Errorf("seed %d %s: path max %d->%d = %+v, want %d", seed, run.name, root, target, run.pm, wantMax)
			}
		}
		if !reflect.DeepEqual(syncOrder, asyncOrder) {
			reordered = true
		}
	}
	if !reordered {
		t.Error("async delivery never changed an echo arrival order; the fold order is untested")
	}
}
