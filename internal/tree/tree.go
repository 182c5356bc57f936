package tree

import (
	"fmt"

	"kkt/internal/congest"
	"kkt/internal/rng"
)

// Message kinds registered by Attach, interned once at package init.
var (
	KindDown  = congest.Kind("tree.down")  // broadcast phase of broadcast-and-echo
	KindUp    = congest.Kind("tree.up")    // echo phase of broadcast-and-echo
	KindToken = congest.Kind("tree.token") // leader-election token
	KindMarkX = congest.Kind("tree.markx") // cross-edge mark request (add-edge forwarding)
)

// Protocol is the per-network instance holding session specs, the state
// pools that keep the per-message path allocation-free, and the protocol
// RNG stream (used only for node-local random choices).
type Protocol struct {
	nw *congest.Network
	// specs binds live broadcast-and-echo sessions to their Spec, indexed
	// by the engine's recycled session slot and validated by the full
	// session ID — no map on the per-message path. Drivers write entries
	// between rounds; handlers only read them, and the root's handler
	// clears its session's slot on completion.
	specs []specSlot
	// beFree recycles per-node broadcast-and-echo automaton states.
	beFree []*beState
	// electBuf is the reusable per-node election state array; electSid is
	// the session currently borrowing it (0 = free). A second concurrent
	// wave — which never happens in the paper's algorithms — falls back to
	// a fresh allocation.
	electBuf []electState
	electSid congest.SessionID
	r        *rng.RNG
}

// specSlot is one entry of the slot-indexed session->spec table.
type specSlot struct {
	sid  congest.SessionID
	spec *Spec
}

// Attach registers the tree protocol handlers on nw and returns the
// instance. Call exactly once per network.
func Attach(nw *congest.Network) *Protocol {
	pr := &Protocol{
		nw: nw,
		r:  nw.Rand(),
	}
	nw.RegisterHandler(KindDown, pr.onDown)
	nw.RegisterHandler(KindUp, pr.onUp)
	nw.RegisterHandler(KindToken, pr.onToken)
	nw.RegisterHandler(KindMarkX, pr.onMarkX)
	return pr
}

// Network returns the attached network.
func (pr *Protocol) Network() *congest.Network { return pr.nw }

// NodeRand returns a deterministic node-local RNG for a given session —
// the node's private coin flips (e.g. the cycle-breaking choice in
// Build-ST). The session's creation serial (not the packed ID) seeds the
// stream, so the draws are independent of session-slot recycling and
// identical to the historical monotonic-ID seeding.
func (pr *Protocol) NodeRand(node congest.NodeID, sid congest.SessionID) *rng.RNG {
	return rng.New(uint64(node)*0x9e3779b97f4a7c15 ^ sid.Serial()*0xbf58476d1ce4e5b9 ^ 0xc2b2ae3d27d4eb4f)
}

// SendMarkX asks the node across the (existing, typically unmarked) link
// {from,to} to mark its half of the edge at the next barrier. Used by
// drivers acting as the in-tree endpoint of a newly selected edge.
func (pr *Protocol) SendMarkX(from, to congest.NodeID) {
	pr.nw.Send(from, to, KindMarkX, 0, 16, nil)
}

func (pr *Protocol) onMarkX(nw *congest.Network, node *congest.NodeState, msg *congest.Message) {
	if node.EdgeTo(msg.From) == nil {
		panic(fmt.Sprintf("tree: markx for missing edge {%d,%d}", msg.From, node.ID))
	}
	node.StageMark(msg.From)
}

// AddEdgeSpec returns the broadcast-and-echo spec of the paper's "Add
// Edge" instruction: the broadcast carries the selected edge's number;
// the in-tree endpoint(s) stage a mark on it and forward a markx across
// it so the other endpoint (possibly outside the tree) also stages one.
// All marks take effect at the next barrier (ApplyStaged).
func AddEdgeSpec(edgeNum uint64) *Spec {
	return &Spec{
		Down:     edgeNum,
		DownBits: 64,
		UpBits:   1,
		OnDown: func(node *congest.NodeState, down any, emit Emit) {
			en := down.(uint64)
			for i := range node.Edges {
				he := &node.Edges[i]
				if he.EdgeNum == en && !he.Marked {
					node.StageMark(he.Neighbor)
					emit(he.Neighbor, KindMarkX, 16, nil)
				}
			}
		},
		Combine: func(node *congest.NodeState, down, local any, children []ChildEcho) any {
			return nil
		},
	}
}
