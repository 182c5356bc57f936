package congest

import (
	"bytes"
	"testing"
	"unsafe"

	"kkt/internal/graph"
	"kkt/internal/rng"
)

// TestHalfEdgeIs24Bytes pins the half-edge layout: neighbour, mark and the
// two layout shift widths share one word, then the raw weight and the FIFO
// cell. A field added back (a stored EdgeNum or Composite) doubles the
// cache lines every delivery's touch pass and edge scan reads.
func TestHalfEdgeIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(HalfEdge{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(HalfEdge{}) = %d, want 24", got)
	}
}

// checkDerivedWeights asserts that every half-edge's derived edge number
// and composite weight equal the layout's, from both endpoints.
func checkDerivedWeights(t *testing.T, nw *Network, when string) {
	t.Helper()
	lay := nw.Layout()
	for v := 1; v <= nw.N(); v++ {
		ns := nw.Node(NodeID(v))
		for i := range ns.Edges {
			he := &ns.Edges[i]
			num := lay.EdgeNum(uint32(ns.ID), uint32(he.Neighbor))
			if got := he.EdgeNum(ns.ID); got != num {
				t.Fatalf("%s: node %d edge to %d: EdgeNum = %#x, layout says %#x", when, v, he.Neighbor, got, num)
			}
			if got, want := he.Composite(ns.ID), lay.Composite(he.Raw, num); got != want {
				t.Fatalf("%s: node %d edge to %d: Composite = %#x, layout says %#x", when, v, he.Neighbor, got, want)
			}
			back := nw.Node(he.Neighbor).EdgeTo(ns.ID)
			if back.EdgeNum(he.Neighbor) != num || back.Composite(he.Neighbor) != he.Composite(ns.ID) {
				t.Fatalf("%s: link {%d,%d} derives different weights at its two ends", when, v, he.Neighbor)
			}
		}
	}
}

// TestDerivedWeightsMatchLayout: on random G(n, 3n) networks the derived
// EdgeNum and Composite equal bitwidth.Layout's, both as built and after
// SetRawWeight changes a third of the links.
func TestDerivedWeightsMatchLayout(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		r := rng.New(seed)
		n := 8 + int(r.Uint64n(120))
		u := uint64(1) << (1 + r.Uint64n(40))
		g := graph.GNM(r, n, 3*n, u, graph.UniformWeights(r.Split(), u))
		nw := NewNetwork(g)
		checkDerivedWeights(t, nw, "built")
		for i, e := range g.Edges() {
			if i%3 != 0 {
				continue
			}
			if err := nw.SetRawWeight(NodeID(e.A), NodeID(e.B), 1+r.Uint64n(u)); err != nil {
				t.Fatal(err)
			}
		}
		checkDerivedWeights(t, nw, "reweighted")
	}
}

// halfEdgeBytes views a node's half-edges as raw memory.
func halfEdgeBytes(es []HalfEdge) []byte {
	if len(es) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&es[0])), len(es)*int(unsafe.Sizeof(HalfEdge{})))
}

// TestInsertIntoFullWindowReallocates: every node's Edges starts as a full
// window of the shared arena, so an insert there must move that node's
// edges out rather than append over node v+1's window.
func TestInsertIntoFullWindowReallocates(t *testing.T) {
	r := rng.New(5)
	g := graph.GNM(r, 40, 80, 1000, graph.UniformWeights(r.Split(), 1000))
	nw := NewNetwork(g)
	const v = NodeID(10)
	a, next := nw.Node(v), nw.Node(v+1)
	if len(a.Edges) != cap(a.Edges) || len(next.Edges) == 0 {
		t.Fatalf("fixture: node %d window %d/%d, node %d has %d edges", v, len(a.Edges), cap(a.Edges), v+1, len(next.Edges))
	}
	// The windows are adjacent in the arena: v's capacity ends where v+1's
	// edges begin.
	if end := unsafe.Add(unsafe.Pointer(&a.Edges[0]), cap(a.Edges)*int(unsafe.Sizeof(HalfEdge{}))); end != unsafe.Pointer(&next.Edges[0]) {
		t.Fatalf("node %d's window does not end at node %d's", v, v+1)
	}
	before := bytes.Clone(halfEdgeBytes(next.Edges))
	nextBase := &next.Edges[0]
	oldBase := &a.Edges[0]
	var to NodeID
	for w := NodeID(1); int(w) <= nw.N(); w++ {
		if w != v && w != v+1 && a.EdgeTo(w) == nil {
			to = w
			break
		}
	}
	if err := nw.InsertLink(v, to, 7); err != nil {
		t.Fatal(err)
	}
	if &a.Edges[0] == oldBase {
		t.Errorf("insert into node %d's full window did not reallocate", v)
	}
	if a.EdgeTo(to) == nil || a.EdgeTo(to).Raw != 7 {
		t.Errorf("inserted link {%d,%d} missing after reallocation", v, to)
	}
	if &next.Edges[0] != nextBase || !bytes.Equal(halfEdgeBytes(next.Edges), before) {
		t.Errorf("node %d's half-edges changed when node %d grew", v+1, v)
	}
	checkDerivedWeights(t, nw, "after insert")
}
