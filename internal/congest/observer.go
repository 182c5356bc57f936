package congest

import "sort"

// Observer receives engine trace events. The engine drives it only at its
// natural barriers, on the engine goroutine, so the callback order is a
// pure function of the seed:
//
//   - RoundEnd fires after a delivery batch has fully applied, so the totals
//     it carries are the batch's final ledger values.
//   - SessionOpen fires from NewSession, which is driver-context-only.
//   - SessionDone fires on session completion, from a handler or a driver.
//   - PhaseStart/PhaseEnd/RepairStart/RepairDone/Count are protocol-layer
//     annotations, called from drivers between rounds.
//
// Observers must treat every slice argument as read-only and must not retain
// it past the call — the engine reuses the backing arrays. Observer state
// must never feed back into engine or protocol decisions: the determinism
// contract is that a run's outputs are byte-identical with the observer on
// or off.
//
// The disabled path is a nil check on the per-round (not per-message) hooks
// and costs no allocations, which is what keeps the committed AllocsPerRun
// and benchcheck gates unmoved.
type Observer interface {
	// RoundEnd reports the cost ledger after one delivery batch: the
	// scheduler clock, cumulative totals and the per-kind breakdown indexed
	// by KindID. shardLoad is always nil: the engine is single-threaded, and
	// the parameter stays only so existing implementations keep compiling.
	RoundEnd(now int64, messages, bits uint64, byKind []KindCount, shardLoad []uint64)
	// SessionOpen reports a session's creation serial.
	SessionOpen(serial uint64, now int64)
	// SessionDone reports a session completion; failed is true when it
	// completed with an error.
	SessionDone(serial uint64, now int64, failed bool)
	// PhaseStart reports a protocol phase boundary (e.g. one Borůvka phase)
	// with the fragment count the phase starts from.
	PhaseStart(proto string, phase, fragments int, now int64)
	// PhaseEnd reports the finished phase's cost.
	PhaseEnd(proto string, phase int, now int64, cost PhaseCosts)
	// RepairStart reports the beginning of a repair operation (op names the
	// operation, e.g. "mst.delete").
	RepairStart(op string, now int64)
	// RepairDone reports a finished repair: its outcome label, round
	// latency, and message/bit cost.
	RepairDone(op, action string, now int64, rounds int64, messages, bits uint64)
	// Count bumps a named protocol lifecycle counter (e.g. FindMin
	// terminations by reason).
	Count(name string, delta uint64)
}

// WithObserver attaches an observer to the network. Pass a non-nil observer
// only — the option exists so the enabled path is opt-in and the default
// remains a nil field checked once per round.
func WithObserver(o Observer) Option { return func(c *config) { c.obs = o } }

// Obs returns the attached observer (nil when disabled). Protocol layers
// call it from driver context to emit phase and lifecycle annotations:
//
//	if o := nw.Obs(); o != nil { o.PhaseStart("mst", phase, frags, nw.Now()) }
func (nw *Network) Obs() Observer { return nw.obs }

// observeRound emits the RoundEnd hook; the caller checks nw.obs != nil.
func (nw *Network) observeRound() {
	nw.obs.RoundEnd(nw.sched.now(), nw.counters.messages, nw.counters.bits, nw.counters.byKind, nil)
}

// ClassCost is the message/bit tally of one kind class (the dot-prefix of
// the kind name: "tree.up" and "tree.down" both fold into class "tree").
// Serialized into per-phase timelines, so the fields carry JSON tags.
type ClassCost struct {
	Class    string `json:"class"`
	Messages uint64 `json:"messages"`
	Bits     uint64 `json:"bits"`
}

// PhaseCosts is the cost of one metered protocol phase: totals plus the
// per-class breakdown, sorted by class name so serialized timelines are
// stable across binaries regardless of kind-interning order.
type PhaseCosts struct {
	Messages uint64      `json:"messages"`
	Bits     uint64      `json:"bits"`
	Rounds   int64       `json:"rounds"`
	Classes  []ClassCost `json:"classes,omitempty"`
}

// PhaseMeter measures one protocol phase against the network's cost ledger
// without snapshotting it into maps: Begin copies the per-kind array into a
// reused scratch buffer, End folds the deltas into per-class sums. The only
// steady-state allocation is the returned Classes slice (one small slice
// per phase). Driver-context only, like the ledger reads it wraps.
type PhaseMeter struct {
	nw            *Network
	startMessages uint64
	startBits     uint64
	startRounds   int64
	startKinds    []KindCount
	classScratch  []KindCount
}

// Begin marks the start of a phase.
func (pm *PhaseMeter) Begin(nw *Network) {
	pm.nw = nw
	pm.startMessages = nw.counters.messages
	pm.startBits = nw.counters.bits
	pm.startRounds = nw.sched.now()
	pm.startKinds = append(pm.startKinds[:0], nw.counters.byKind...)
}

// End returns the cost accumulated since Begin.
func (pm *PhaseMeter) End() PhaseCosts {
	nw := pm.nw
	cost := PhaseCosts{
		Messages: nw.counters.messages - pm.startMessages,
		Bits:     nw.counters.bits - pm.startBits,
		Rounds:   nw.sched.now() - pm.startRounds,
	}
	classOf, classNames := kindClassTable()
	if cap(pm.classScratch) < len(classNames) {
		pm.classScratch = make([]KindCount, len(classNames))
	}
	scratch := pm.classScratch[:len(classNames)]
	for i := range scratch {
		scratch[i] = KindCount{}
	}
	active := 0
	for k := range nw.counters.byKind {
		d := nw.counters.byKind[k]
		if k < len(pm.startKinds) {
			d.Messages -= pm.startKinds[k].Messages
			d.Bits -= pm.startKinds[k].Bits
		}
		if d.Messages == 0 && d.Bits == 0 {
			continue
		}
		c := &scratch[classOf[k]]
		if c.Messages == 0 && c.Bits == 0 {
			active++
		}
		c.Messages += d.Messages
		c.Bits += d.Bits
	}
	if active > 0 {
		classes := make([]ClassCost, 0, active)
		for c := range scratch {
			if kc := scratch[c]; kc.Messages != 0 || kc.Bits != 0 {
				classes = append(classes, ClassCost{Class: classNames[c], Messages: kc.Messages, Bits: kc.Bits})
			}
		}
		sort.Slice(classes, func(i, j int) bool { return classes[i].Class < classes[j].Class })
		cost.Classes = classes
	}
	return cost
}
