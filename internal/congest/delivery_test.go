package congest

import (
	"fmt"
	"testing"

	"kkt/internal/graph"
	"kkt/internal/rng"
)

// TestInFlightLinkLiveness pins the delivery-time liveness check on both
// schedulers: a message whose own link is deleted while it is in flight is
// dropped; one whose link is deleted and reinserted before delivery is
// delivered (the link exists again when it arrives); and deleting an
// unrelated link does not disturb it, although the network's removal count
// moved. Dropped messages are not staged mark changes: StagedDrops stays 0.
func TestInFlightLinkLiveness(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(nw *Network)
		deliver bool
	}{
		{"own-link-deleted", func(nw *Network) { nw.DeleteLink(1, 2) }, false},
		{"own-link-deleted-reinserted", func(nw *Network) {
			nw.DeleteLink(1, 2)
			if err := nw.InsertLink(1, 2, 1); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"unrelated-link-deleted", func(nw *Network) { nw.DeleteLink(3, 4) }, true},
	}
	kind := Kind("test.liveness")
	for _, sched := range []struct {
		name string
		opts []Option
	}{{"sync", nil}, {"async", []Option{WithAsync(4), WithSeed(3)}}} {
		for _, tc := range cases {
			t.Run(sched.name+"/"+tc.name, func(t *testing.T) {
				nw := buildNet(t, 4, sched.opts...)
				var got []NodeID
				nw.RegisterHandler(kind, func(nw *Network, node *NodeState, msg *Message) {
					got = append(got, msg.From)
					node.StageMark(msg.From)
				})
				nw.Spawn("driver", func(p *Proc) error {
					nw.Send(1, 2, kind, 0, 8, nil)
					tc.mutate(nw)
					p.AwaitQuiescence()
					nw.ApplyStaged()
					return nil
				})
				if err := nw.Run(); err != nil {
					t.Fatal(err)
				}
				if delivered := len(got) == 1 && got[0] == 1; delivered != tc.deliver || len(got) > 1 {
					t.Errorf("deliveries from %v, want delivered=%v", got, tc.deliver)
				}
				if d := nw.StagedDrops(); d != 0 {
					t.Errorf("StagedDrops = %d, want 0", d)
				}
			})
		}
	}
}

// TestLivenessGateUnderChurn deletes and reinserts links from inside
// handlers, so removals land mid-batch while other messages of the same
// batch are in flight on the affected links. Every delivered message must
// find its link present at delivery, and the run must both drop messages
// and deliver some sent before a removal (the search path, not only the
// unchanged-count shortcut).
func TestLivenessGateUnderChurn(t *testing.T) {
	kind := Kind("test.churn")
	for _, sched := range []struct {
		name string
		opts []Option
	}{{"sync", nil}, {"async", []Option{WithAsync(4), WithSeed(5)}}} {
		t.Run(sched.name, func(t *testing.T) {
			r := rng.New(17)
			g := graph.GNM(r, 64, 192, 8, graph.UnitWeights())
			nw := NewNetwork(g, sched.opts...)
			var deleted [][2]NodeID
			sent, delivered, afterRemoval := 64, 0, 0
			nw.RegisterHandler(kind, func(nw *Network, node *NodeState, msg *Message) {
				delivered++
				if node.EdgeTo(msg.From) == nil {
					t.Errorf("delivered %d -> %d over a missing link", msg.From, msg.To)
				}
				if msg.removals != nw.removals {
					afterRemoval++
				}
				switch r.Intn(4) {
				case 0: // delete a random link of a random node
					u := nw.Node(NodeID(1 + r.Intn(nw.N())))
					if len(u.Edges) > 0 {
						v := u.Edges[r.Intn(len(u.Edges))].Neighbor
						nw.DeleteLink(u.ID, v)
						deleted = append(deleted, [2]NodeID{u.ID, v})
					}
				case 1: // reinsert the oldest deleted link
					if len(deleted) > 0 {
						if err := nw.InsertLink(deleted[0][0], deleted[0][1], 1); err != nil {
							t.Error(err)
						}
						deleted = deleted[1:]
					}
				}
				if sent < 4000 && len(node.Edges) > 0 {
					sent++
					nw.Send(node.ID, node.Edges[r.Intn(len(node.Edges))].Neighbor, kind, 0, 8, nil)
				}
			})
			nw.Spawn("walkers", func(p *Proc) error {
				for w := 0; w < sent; w++ {
					from := NodeID(1 + w)
					nw.Send(from, nw.Node(from).Edges[0].Neighbor, kind, 0, 8, nil)
				}
				p.AwaitQuiescence()
				return nil
			})
			if err := nw.Run(); err != nil {
				t.Fatal(err)
			}
			if delivered == sent || afterRemoval == 0 {
				t.Errorf("sent %d, delivered %d (%d after a removal): churn did not exercise both drop and search paths",
					sent, delivered, afterRemoval)
			}
		})
	}
}

// TestSessionStateMatchesMapModel drives one node's session store — the
// inline slot plus the spill vector — through every insertion and
// deletion order of three concurrent sessions, then through a long random
// set/overwrite/delete/get sequence over five, and checks each read
// against a map — and that the inline slot is only empty when the spill
// vector is too, so the common single binding never leaves the record.
func TestSessionStateMatchesMapModel(t *testing.T) {
	nw := buildNet(t, 2)
	sids := make([]SessionID, 5)
	for i := range sids {
		sids[i] = nw.NewSession(nil)
	}
	check := func(t *testing.T, ns *NodeState, model map[SessionID]any) {
		t.Helper()
		for _, sid := range sids {
			if got, want := ns.SessionState(sid), model[sid]; got != want {
				t.Fatalf("SessionState(%d) = %v, want %v", sid, got, want)
			}
		}
		if ns.SessionState(0) != nil {
			t.Fatal("SessionState(0) is not nil")
		}
		if ns.sess0.sid == 0 && len(ns.sess) != 0 {
			t.Fatalf("inline slot empty while %d bindings spilled", len(ns.sess))
		}
	}

	perms := permutations([]int{0, 1, 2})
	for _, ins := range perms {
		for _, del := range perms {
			t.Run(fmt.Sprintf("ins%v/del%v", ins, del), func(t *testing.T) {
				ns := &NodeState{ID: 1}
				model := map[SessionID]any{}
				for _, i := range ins {
					ns.SetSessionState(sids[i], i)
					model[sids[i]] = i
					check(t, ns, model)
				}
				for _, i := range del {
					ns.SetSessionState(sids[i], nil)
					delete(model, sids[i])
					check(t, ns, model)
				}
				if ns.sess0 != (sessEntry{}) || len(ns.sess) != 0 {
					t.Fatalf("emptied store left sess0=%+v sess=%v", ns.sess0, ns.sess)
				}
			})
		}
	}

	t.Run("random", func(t *testing.T) {
		r := rng.New(9)
		ns := &NodeState{ID: 1}
		model := map[SessionID]any{}
		for step := 0; step < 4000; step++ {
			sid := sids[r.Intn(len(sids))]
			switch r.Intn(3) {
			case 0: // set or overwrite
				ns.SetSessionState(sid, step)
				model[sid] = step
			case 1:
				ns.SetSessionState(sid, nil)
				delete(model, sid)
			}
			check(t, ns, model)
		}
	})
}

// permutations returns every ordering of xs.
func permutations(xs []int) [][]int {
	if len(xs) <= 1 {
		return [][]int{append([]int(nil), xs...)}
	}
	var out [][]int
	for i := range xs {
		rest := append(append([]int(nil), xs[:i]...), xs[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]int{xs[i]}, p...))
		}
	}
	return out
}

// TestSetSessionStateZeroPanics: session 0 is the sessionless marker, so
// binding state to it is a caller bug — it would alias the empty inline
// slot.
func TestSetSessionStateZeroPanics(t *testing.T) {
	for _, st := range []any{1, nil} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetSessionState(0, %v) did not panic", st)
				}
			}()
			(&NodeState{ID: 1}).SetSessionState(0, st)
		}()
	}
}

// TestTopologyMutationRejectsUnknownNodes: every topology mutator treats
// an endpoint outside 1..n as a missing node instead of indexing past the
// node table.
func TestTopologyMutationRejectsUnknownNodes(t *testing.T) {
	for _, e := range [][2]NodeID{{0, 1}, {1, 0}, {0, 0}, {4, 1}, {1, 4}, {99, 1}, {1, 99}} {
		nw := buildNet(t, 3)
		if existed, marked := nw.DeleteLink(e[0], e[1]); existed || marked {
			t.Errorf("DeleteLink(%d, %d) = %v, %v; want false, false", e[0], e[1], existed, marked)
		}
		if err := nw.SetRawWeight(e[0], e[1], 1); err == nil {
			t.Errorf("SetRawWeight(%d, %d) accepted", e[0], e[1])
		}
		if err := nw.InsertLink(e[0], e[1], 1); err == nil {
			t.Errorf("InsertLink(%d, %d) accepted", e[0], e[1])
		}
		if me := len(nw.Node(1).Edges) + len(nw.Node(2).Edges) + len(nw.Node(3).Edges); me != 4 {
			t.Errorf("after {%d,%d}: %d half-edges, want 4", e[0], e[1], me)
		}
	}
}
