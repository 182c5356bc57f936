package st

import (
	"fmt"

	"kkt/internal/congest"
	"kkt/internal/findany"
	"kkt/internal/sketch"
	"kkt/internal/tree"
)

// Action describes what an ST repair did.
type Action int

const (
	// NoOp: the change did not affect the maintained forest.
	NoOp Action = iota + 1
	// Reconnected: a replacement edge was found and marked.
	Reconnected
	// Bridge: the deleted edge was a bridge.
	Bridge
	// Added: the inserted edge joined two trees.
	Added
	// Failed: FindAny gave up (probability ~ n^-c for the Full variant).
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
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Report is the outcome and cost of one ST repair.
type Report struct {
	Action   Action
	Messages uint64
	Bits     uint64
	Time     int64
}

// RepairConfig tunes ST repair.
type RepairConfig struct {
	Seed    uint64
	FindAny findany.Config
}

// DefaultRepair returns the paper-faithful configuration (FindAny, i.e.
// expected O(n) messages per delete).
func DefaultRepair(seed uint64) RepairConfig {
	return RepairConfig{Seed: seed, FindAny: findany.Defaults(findany.Full)}
}

// obsRepairStart/obsRepairDone bracket a repair operation for the attached
// observer (no-ops when none).
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

// drive runs one repair alone on the idle network: the wave-mode
// stormRepair machine, rooted at the smaller-ID endpoint of {a,b}, as the
// only driver of one Run. With no wave controller around, drive applies
// the staged marks itself once the Run has quiesced, and reports the
// repair's cost.
func drive(nw *congest.Network, pr *tree.Protocol, op string, deleteStyle bool, a, b congest.NodeID, seed uint64, cfg findany.Config) (Report, error) {
	before := nw.Counters()
	beforeTime := nw.Now()
	obsRepairStart(nw, op)
	u, v := a, b
	if v < u {
		u, v = v, u
	}
	sr := &stormRepair{nw: nw, pr: pr}
	if deleteStyle {
		sr.fa = findany.NewMachine(sketch.NewCarriers())
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

// Delete processes the deletion of link {a,b} for a maintained spanning
// forest (paper §4.3): if it was a tree edge, the smaller-ID endpoint
// finds any replacement with FindAny. Expected O(n) messages.
func Delete(nw *congest.Network, pr *tree.Protocol, a, b congest.NodeID, cfg RepairConfig) (Report, error) {
	existed, wasMarked := nw.DeleteLink(a, b)
	if !existed {
		return Report{}, fmt.Errorf("st: delete of non-existent link {%d,%d}", a, b)
	}
	if !wasMarked {
		rep := Report{Action: NoOp}
		obsRepairStart(nw, "st.delete")
		obsRepairDone(nw, "st.delete", rep)
		return rep, nil
	}
	return drive(nw, pr, "st.delete", true, a, b, cfg.Seed^uint64(a)<<32^uint64(b), cfg.FindAny)
}

// Insert processes the insertion of link {a,b}: for an unweighted
// spanning forest the edge matters only if it joins two trees, which one
// broadcast-and-echo from the smaller endpoint decides. Deterministic,
// O(|T|) messages.
func Insert(nw *congest.Network, pr *tree.Protocol, a, b congest.NodeID, cfg RepairConfig) (Report, error) {
	if err := nw.InsertLink(a, b, 1); err != nil {
		return Report{}, err
	}
	return drive(nw, pr, "st.insert", false, a, b, 0, cfg.FindAny)
}

// containsSpec builds the membership broadcast-and-echo spec: is target in
// the root's tree?
func containsSpec(target congest.NodeID) *tree.Spec {
	return &tree.Spec{
		Down:     target,
		DownBits: 32,
		UpBits:   1,
		Local: func(node *congest.NodeState, down any) any {
			return node.ID == down.(congest.NodeID)
		},
		Combine: func(node *congest.NodeState, down, acc any, c tree.ChildEcho) any {
			return acc.(bool) || c.Value.(bool)
		},
	}
}
