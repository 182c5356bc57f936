package tree

import (
	"fmt"

	"kkt/internal/congest"
)

// ChildEcho is one child's aggregated echo, tagged with the child's ID so
// Combine can look up the connecting edge (node.EdgeTo(From)) when it needs
// the edge's weight, e.g. for tree-path maxima.
type ChildEcho struct {
	From  congest.NodeID
	Value any
}

// Emit lets OnDown side effects send extra protocol messages from the
// receiving node (e.g. forwarding an add-edge instruction across the new
// edge).
type Emit func(to congest.NodeID, kind congest.KindID, bits int, payload any)

// Spec describes one broadcast-and-echo: what the root broadcasts, what
// each node computes locally, and how echoes aggregate. The functions are
// shared protocol code — identical at every node — and must only read the
// *NodeState they are handed plus the broadcast value.
//
// A spec uses exactly one of two echo lanes:
//
//   - the boxed lane (Local/Combine): echo values are `any`; Local seeds a
//     per-node accumulator and each child's echo folds into it as it
//     arrives. General, but every echo boxes its value.
//
//   - the unboxed lane (LocalU/CombineU): echo values are single uint64
//     words (parities, XORs, small counters — the dominant case in the
//     paper's sketches). Words travel in Message.U, fold into a per-node
//     accumulator as they arrive, and complete the session via
//     CompleteSessionU — no interface allocation anywhere on the path.
type Spec struct {
	// Down is the broadcast payload, forwarded unchanged down the tree.
	Down any
	// DownBits / UpBits declare the message sizes for cost accounting
	// and budget checking.
	DownBits int
	UpBits   int
	// Local computes the node's own contribution upon receiving the
	// broadcast (boxed lane): the accumulator's initial value. May be nil
	// (the accumulator starts as nil).
	Local func(node *congest.NodeState, down any) any
	// Combine folds one child's echo into the accumulator and returns the
	// new accumulator (boxed lane). It runs once per echo, in arrival
	// order, which differs between schedulers — so the fold must not
	// depend on that order. Once every child has echoed, the accumulator
	// is the value echoed to the parent (and, at the root, the session
	// result). nil discards children's echoes: a spec with neither Local
	// nor Combine echoes nil.
	Combine func(node *congest.NodeState, down, acc any, child ChildEcho) any
	// LocalU, when non-nil, selects the unboxed lane and computes the
	// node's own word. Local and Combine must be nil then.
	LocalU func(node *congest.NodeState, down any) uint64
	// CombineU folds one child's echo word into the accumulator (unboxed
	// lane). The fold must be commutative and associative, since echoes
	// fold in arrival order. nil means XOR.
	CombineU func(node *congest.NodeState, down any, acc, child uint64) uint64
	// OnDown, if non-nil, runs at every node when the broadcast arrives
	// (including the root at start) and may mutate local state and emit
	// extra messages. Used for marking instructions.
	OnDown func(node *congest.NodeState, down any, emit Emit)
}

// unboxed reports which echo lane the spec uses.
func (s *Spec) unboxed() bool { return s.LocalU != nil }

// beState is the per-node automaton state of one broadcast-and-echo.
// States are recycled through the Protocol's free list, so a warm protocol
// performs whole broadcast-and-echoes without allocating.
type beState struct {
	parent   congest.NodeID // 0 at the root
	expected int            // children still to echo
	acc      any            // boxed lane accumulator
	accU     uint64         // unboxed lane accumulator
}

// getBE pops a recycled beState (or allocates) and initialises it.
func (pr *Protocol) getBE(parent congest.NodeID) *beState {
	if n := len(pr.beFree); n > 0 {
		st := pr.beFree[n-1]
		pr.beFree[n-1] = nil
		pr.beFree = pr.beFree[:n-1]
		st.parent = parent
		return st
	}
	return &beState{parent: parent}
}

// putBE recycles a finished beState, dropping its value reference for GC.
func (pr *Protocol) putBE(st *beState) {
	*st = beState{}
	pr.beFree = append(pr.beFree, st)
}

// setSpec binds a session to its spec in the slot-indexed table (no map
// ops: the session slot is recycled by the engine, the full ID validates).
func (pr *Protocol) setSpec(sid congest.SessionID, spec *Spec) {
	slot := sid.Slot()
	for slot >= len(pr.specs) {
		pr.specs = append(pr.specs, specSlot{})
	}
	pr.specs[slot] = specSlot{sid: sid, spec: spec}
}

// specFor resolves a session's spec, or nil for an unknown session.
func (pr *Protocol) specFor(sid congest.SessionID) *Spec {
	slot := sid.Slot()
	if slot >= len(pr.specs) || pr.specs[slot].sid != sid {
		return nil
	}
	return pr.specs[slot].spec
}

// clearSpec unbinds a completed session's spec.
func (pr *Protocol) clearSpec(sid congest.SessionID) {
	slot := sid.Slot()
	if slot < len(pr.specs) && pr.specs[slot].sid == sid {
		pr.specs[slot] = specSlot{}
	}
}

// StartBroadcastEcho begins a broadcast-and-echo rooted at root over the
// marked edges. The returned session completes (at the initiating driver)
// with the root's accumulator once every echo has folded in — CombineU's
// word, via AwaitU, on the unboxed lane. The marked subgraph containing
// root must be a tree, otherwise the run panics — cycles are a protocol
// error here (Build-ST handles cycles via elections, never via B&E).
func (pr *Protocol) StartBroadcastEcho(root congest.NodeID, spec *Spec) congest.SessionID {
	if spec.unboxed() && (spec.Local != nil || spec.Combine != nil) {
		panic("tree: Spec mixes the unboxed (LocalU) and boxed (Local/Combine) lanes")
	}
	if o := pr.nw.Obs(); o != nil {
		o.Count("tree.bcast_echo", 1)
	}
	sid := pr.nw.NewSession(nil)
	pr.setSpec(sid, spec)
	node := pr.nw.Node(root)
	st := pr.getBE(0)
	pr.runDownAt(pr.nw, node, sid, spec, st)
	return sid
}

// runDownAt performs the on-broadcast work at a node: side effects, local
// compute, forwarding, and the immediate echo when the node is a leaf.
func (pr *Protocol) runDownAt(nw *congest.Network, node *congest.NodeState, sid congest.SessionID, spec *Spec, st *beState) {
	if spec.OnDown != nil {
		spec.OnDown(node, spec.Down, func(to congest.NodeID, kind congest.KindID, bits int, payload any) {
			nw.Send(node.ID, to, kind, sid, bits, payload)
		})
	}
	if spec.unboxed() {
		st.accU = spec.LocalU(node, spec.Down)
	} else if spec.Local != nil {
		st.acc = spec.Local(node, spec.Down)
	}
	for i := range node.Edges {
		he := &node.Edges[i]
		if he.Marked && he.Neighbor != st.parent {
			st.expected++
			nw.Send(node.ID, he.Neighbor, KindDown, sid, spec.DownBits, spec.Down)
		}
	}
	if st.expected == 0 {
		pr.echoUp(nw, node, sid, spec, st)
		return
	}
	node.SetSessionState(sid, st)
}

// echoUp finishes a node: its accumulator, with every child folded in,
// either completes the session (at the root) or is echoed to the parent.
func (pr *Protocol) echoUp(nw *congest.Network, node *congest.NodeState, sid congest.SessionID, spec *Spec, st *beState) {
	parent := st.parent
	if spec.unboxed() {
		val := st.accU
		node.SetSessionState(sid, nil)
		pr.putBE(st)
		if parent == 0 {
			pr.clearSpec(sid)
			nw.CompleteSessionU(sid, val, nil)
			return
		}
		nw.SendU(node.ID, parent, KindUp, sid, spec.UpBits, val)
		return
	}
	val := st.acc
	node.SetSessionState(sid, nil)
	pr.putBE(st)
	if parent == 0 {
		pr.clearSpec(sid)
		nw.CompleteSession(sid, val, nil)
		return
	}
	nw.Send(node.ID, parent, KindUp, sid, spec.UpBits, val)
}

func (pr *Protocol) onDown(nw *congest.Network, node *congest.NodeState, msg *congest.Message) {
	spec := pr.specFor(msg.Session)
	if spec == nil {
		panic(fmt.Sprintf("tree: down message for unknown session %d", msg.Session))
	}
	if node.SessionState(msg.Session) != nil {
		panic(fmt.Sprintf("tree: node %d got a second broadcast in session %d — marked subgraph is not a tree", node.ID, msg.Session))
	}
	st := pr.getBE(msg.From)
	pr.runDownAt(nw, node, msg.Session, spec, st)
}

func (pr *Protocol) onUp(nw *congest.Network, node *congest.NodeState, msg *congest.Message) {
	spec := pr.specFor(msg.Session)
	if spec == nil {
		panic(fmt.Sprintf("tree: up message for unknown session %d", msg.Session))
	}
	raw := node.SessionState(msg.Session)
	st, ok := raw.(*beState)
	if !ok {
		panic(fmt.Sprintf("tree: node %d got echo without broadcast state in session %d", node.ID, msg.Session))
	}
	switch {
	case !spec.unboxed():
		if spec.Combine != nil {
			st.acc = spec.Combine(node, spec.Down, st.acc, ChildEcho{From: msg.From, Value: msg.Payload})
		}
	case spec.CombineU != nil:
		st.accU = spec.CombineU(node, spec.Down, st.accU, msg.U)
	default:
		st.accU ^= msg.U
	}
	st.expected--
	if st.expected == 0 {
		pr.echoUp(nw, node, msg.Session, spec, st)
	}
}
