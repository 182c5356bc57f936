package mst

import (
	"fmt"

	"kkt/internal/congest"
	"kkt/internal/findmin"
	"kkt/internal/sketch"
	"kkt/internal/tree"
)

// Action describes what a repair operation did.
type Action int

const (
	// NoOp: the change did not affect the maintained forest.
	NoOp Action = iota + 1
	// Reconnected: a replacement edge was found and marked.
	Reconnected
	// Bridge: the deleted edge was a bridge; the component stays split.
	Bridge
	// Added: the inserted edge joined two trees (or beat nothing).
	Added
	// Swapped: the inserted/cheapened edge replaced the heaviest path
	// edge.
	Swapped
	// Kept: the inserted/cheapened edge lost to the existing path.
	Kept
	// Failed: the randomized search gave up (probability ~ n^-c for the
	// Full variants); the forest may be left disconnected.
	Failed
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case NoOp:
		return "no-op"
	case Reconnected:
		return "reconnected"
	case Bridge:
		return "bridge"
	case Added:
		return "added"
	case Swapped:
		return "swapped"
	case Kept:
		return "kept"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Report is the outcome and cost of one repair operation.
type Report struct {
	Action   Action
	Messages uint64
	Bits     uint64
	Time     int64
}

// RepairConfig tunes the repair operations.
type RepairConfig struct {
	Seed uint64
	// FindMin is the replacement-search configuration; the paper uses
	// FindMin (Full) for expected-cost repair, FindMin-C for worst-case.
	FindMin findmin.Config
}

// DefaultRepair returns the paper-faithful configuration (FindMin, i.e.
// expected O(n log n / log log n) messages per delete).
func DefaultRepair(seed uint64) RepairConfig {
	return RepairConfig{Seed: seed, FindMin: findmin.Defaults(findmin.Full)}
}

// obsRepairStart/obsRepairDone bracket a repair operation for the attached
// observer (no-ops when none): the round-latency and cost reported are the
// same deltas the returned Report carries.
func obsRepairStart(nw *congest.Network, op string) {
	if o := nw.Obs(); o != nil {
		o.RepairStart(op, nw.Now())
	}
}

func obsRepairDone(nw *congest.Network, op string, rep Report) {
	if o := nw.Obs(); o != nil {
		o.RepairDone(op, rep.Action.String(), nw.Now(), rep.Time, rep.Messages, rep.Bits)
	}
}

// noOp reports a change that leaves the forest untouched, bracketed for
// the observer like every other repair (at zero cost).
func noOp(nw *congest.Network, op string) Report {
	rep := Report{Action: NoOp}
	obsRepairStart(nw, op)
	obsRepairDone(nw, op, rep)
	return rep
}

// drive runs one repair alone on the idle network: the wave-mode
// stormRepair machine, rooted at the smaller-ID endpoint of {a,b}, as the
// only driver of one Run. With no wave controller around, drive applies
// the staged marks itself once the Run has quiesced, and reports the
// repair's cost.
func drive(nw *congest.Network, pr *tree.Protocol, op string, deleteStyle bool, a, b congest.NodeID, seed uint64, cfg findmin.Config) (Report, error) {
	before := nw.Counters()
	beforeTime := nw.Now()
	obsRepairStart(nw, op)
	u, v := a, b
	if v < u {
		u, v = v, u
	}
	sr := &stormRepair{nw: nw, pr: pr}
	if deleteStyle {
		sr.fm = findmin.NewMachine(sketch.NewCarriers())
	}
	sr.reset(deleteStyle, u, v, seed, cfg)
	nw.SpawnStep(op, sr)
	if err := nw.Run(); err != nil {
		return Report{Action: sr.action}, err
	}
	nw.ApplyStaged()
	c := nw.CountersSince(before)
	rep := Report{Action: sr.action, Messages: c.Messages, Bits: c.Bits, Time: nw.Now() - beforeTime}
	obsRepairDone(nw, op, rep)
	return rep, nil
}

// Delete processes the deletion of link {a,b} (paper §3.2 Delete(u,v)):
// the link is removed from the topology; if it was a tree edge, the
// smaller-ID endpoint initiates FindMin over its remaining tree and marks
// the replacement, if any. The network must be idle (impromptu repair is
// between-updates state-free).
func Delete(nw *congest.Network, pr *tree.Protocol, a, b congest.NodeID, cfg RepairConfig) (Report, error) {
	existed, wasMarked := nw.DeleteLink(a, b)
	if !existed {
		return Report{}, fmt.Errorf("mst: delete of non-existent link {%d,%d}", a, b)
	}
	if !wasMarked {
		return noOp(nw, "mst.delete"), nil
	}
	return drive(nw, pr, "mst.delete", true, a, b, cfg.Seed^uint64(a)<<32^uint64(b), cfg.FindMin)
}

// Insert processes the insertion of link {a,b} with the given raw weight
// (paper §3.2 Insert(u,v)): the smaller-ID endpoint checks whether the
// other endpoint is in its tree and, if so, finds the heaviest edge on the
// tree path between them with one broadcast-and-echo; the new edge
// replaces it if lighter. Deterministic, O(|T|) messages.
func Insert(nw *congest.Network, pr *tree.Protocol, a, b congest.NodeID, raw uint64, cfg RepairConfig) (Report, error) {
	if err := nw.InsertLink(a, b, raw); err != nil {
		return Report{}, err
	}
	return drive(nw, pr, "mst.insert", false, a, b, 0, cfg.FindMin)
}

// WeightChange processes a weight change on the existing link {a,b}
// (paper Theorem 1.2 treats increases like deletions and decreases like
// insertions).
func WeightChange(nw *congest.Network, pr *tree.Protocol, a, b congest.NodeID, newRaw uint64, cfg RepairConfig) (Report, error) {
	he := nw.Node(a).EdgeTo(b)
	if he == nil {
		return Report{}, fmt.Errorf("mst: weight change on non-existent link {%d,%d}", a, b)
	}
	oldRaw, wasMarked := he.Raw, he.Marked
	if newRaw == oldRaw {
		return noOp(nw, "mst.reweight"), nil
	}
	if err := nw.SetRawWeight(a, b, newRaw); err != nil {
		return Report{}, err
	}
	switch {
	case wasMarked && newRaw > oldRaw:
		// Increase on a tree edge: both endpoints observe the change and
		// unmark; then repair exactly like a deletion, except the edge
		// itself stays available as its own (possibly best) replacement.
		nw.Node(a).SetMark(b, false)
		nw.Node(b).SetMark(a, false)
		return drive(nw, pr, "mst.reweight", true, a, b, cfg.Seed^uint64(a)<<32^uint64(b)^0x5851f42d4c957f2d, cfg.FindMin)
	case !wasMarked && newRaw < oldRaw:
		// Decrease on a non-tree edge: like an insertion.
		return drive(nw, pr, "mst.reweight", false, a, b, 0, cfg.FindMin)
	default:
		// Decrease on a tree edge / increase on a non-tree edge: the MSF
		// is unchanged.
		return noOp(nw, "mst.reweight"), nil
	}
}

// pathMaxResult is the aggregate of the Insert broadcast-and-echo.
type pathMaxResult struct {
	// Found: the target node is in the tree.
	Found bool
	// MaxComposite / MaxEdgeNum identify the heaviest edge on the tree
	// path from the root to the target (valid when Found).
	MaxComposite uint64
	MaxEdgeNum   uint64
}

// pathMaxSpec builds the Insert(u,v) broadcast-and-echo spec: does the
// target lie in the root's tree, and if so what is the heaviest edge on
// the tree path between them?
func pathMaxSpec(target congest.NodeID) *tree.Spec {
	return &tree.Spec{
		Down:     target,
		DownBits: 32,
		UpBits:   1 + 64 + 64,
		Local: func(node *congest.NodeState, down any) any {
			return pathMaxResult{Found: node.ID == down.(congest.NodeID)}
		},
		Combine: func(node *congest.NodeState, down, acc any, c tree.ChildEcho) any {
			cr := c.Value.(pathMaxResult)
			if !cr.Found {
				return acc
			}
			// extend the child's path by the connecting tree edge.
			he := node.EdgeTo(c.From)
			if comp := he.Composite(node.ID); comp > cr.MaxComposite {
				cr.MaxComposite, cr.MaxEdgeNum = comp, he.EdgeNum(node.ID)
			}
			return cr
		},
	}
}

// swapSpec broadcasts "unmark removeEdge, mark addEdge": both endpoints
// of each edge are in the tree and stage their own halves.
func swapSpec(removeEdgeNum, addEdgeNum uint64) *tree.Spec {
	return &tree.Spec{
		Down:     [2]uint64{removeEdgeNum, addEdgeNum},
		DownBits: 128,
		UpBits:   1,
		OnDown: func(node *congest.NodeState, down any, emit tree.Emit) {
			d := down.([2]uint64)
			for i := range node.Edges {
				he := &node.Edges[i]
				if he.EdgeNum(node.ID) == d[0] && he.Marked {
					node.StageUnmark(he.Neighbor)
				}
				if he.EdgeNum(node.ID) == d[1] && !he.Marked {
					node.StageMark(he.Neighbor)
				}
			}
		},
	}
}
