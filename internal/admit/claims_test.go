package admit

import (
	"testing"

	"kkt/internal/congest"
	"kkt/internal/faultplan"
	"kkt/internal/graph"
)

// nopRepair is a repair driver that finishes on its first step.
type nopRepair struct{}

func (nopRepair) Step(*congest.Task, congest.Wake) (congest.SessionID, bool, error) {
	return 0, true, nil
}

func (nopRepair) Action() string { return "repaired" }

// admission is one Admit call a recordingLauncher saw.
type admission struct {
	wave     int
	ev       faultplan.Event
	deferred bool
}

// recordingLauncher claims both endpoints of every event, launches a
// nopRepair when the claim holds and defers otherwise, and records each
// Admit call with the wave it happened in.
type recordingLauncher struct {
	wave int
	seen []admission
}

func (l *recordingLauncher) Admit(ev faultplan.Event, _ uint64, claim Claim) Decision {
	ok := claim(congest.NodeID(ev.A), congest.NodeID(ev.B))
	l.seen = append(l.seen, admission{wave: l.wave, ev: ev, deferred: !ok})
	if !ok {
		return Decision{Deferred: true}
	}
	return Decision{Op: "test.repair", Driver: nopRepair{}}
}

func (l *recordingLauncher) Release(Repair) {}

// admittedAt returns the wave in which ev was admitted, or -1.
func (l *recordingLauncher) admittedAt(ev faultplan.Event) int {
	for _, a := range l.seen {
		if a.ev == ev && !a.deferred {
			return a.wave
		}
	}
	return -1
}

// twoTrees returns the path 1-..-6 with the forest {1,2,3} and {4,5,6}
// marked: two wave-start components a claim can hold.
func twoTrees() *congest.Network {
	nw := congest.NewNetwork(graph.Path(6, 16, graph.UnitWeights()))
	nw.SetForest([][2]congest.NodeID{{1, 2}, {2, 3}, {4, 5}, {5, 6}})
	return nw
}

// drain runs waves until the queue is empty, numbering them for l.
func drain(t *testing.T, q *Queue, nw *congest.Network, l *recordingLauncher) {
	t.Helper()
	for l.wave = 1; q.Pending() > 0; l.wave++ {
		if l.wave > 64 {
			t.Fatalf("queue still has %d events after 64 waves", q.Pending())
		}
		if _, err := q.RunWave(nw, l); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClaimConflictDefersThenRetries: two events whose repairs would
// cover the same wave-start fragment cannot share a wave. The second is
// deferred — counted as a retry, its topology untouched — and admitted in
// a later wave, while an event on a disjoint fragment is admitted in the
// first wave alongside the first.
func TestClaimConflictDefersThenRetries(t *testing.T) {
	nw := twoTrees()
	first := faultplan.Event{Op: faultplan.OpDelete, A: 1, B: 2}
	clash := faultplan.Event{Op: faultplan.OpDelete, A: 2, B: 3}
	other := faultplan.Event{Op: faultplan.OpDelete, A: 4, B: 5}
	q := NewQueue(Config{Seed: 7})
	q.Push(first, clash, other)
	l := &recordingLauncher{}
	drain(t, q, nw, l)

	if got := l.admittedAt(first); got != 1 {
		t.Errorf("first event admitted in wave %d, want 1", got)
	}
	if got := l.admittedAt(other); got != 1 {
		t.Errorf("event on the disjoint fragment admitted in wave %d, want 1", got)
	}
	if len(l.seen) < 2 || l.seen[1].ev != clash || !l.seen[1].deferred || l.seen[1].wave != 1 {
		t.Fatalf("second Admit call = %+v, want the clashing event deferred in wave 1", l.seen[1])
	}
	if got := l.admittedAt(clash); got <= 1 {
		t.Errorf("clashing event admitted in wave %d, want a later wave", got)
	}
	st := q.Stats()
	if st.Repairs != 3 || st.Retries != 1 || st.Actions["repaired"] != 3 {
		t.Errorf("stats = %+v, want 3 repairs and 1 retry", st)
	}
}

// TestSameEdgeAdmitsInQueueOrder: two events on one link are admitted in
// queue order even when the later one's backoff expires first. The seed is
// chosen so that it does: only the same-edge rule keeps the order.
func TestSameEdgeAdmitsInQueueOrder(t *testing.T) {
	cfg := Config{}.withDefaults()
	// Queue: 0 claims fragment {1,2,3}; 1 clashes with it on link {2,3}
	// and backs off; 2 is the reverse-named same link, queued after 1.
	for cfg.Seed = 1; backoffDelay(cfg.Seed, 1, 1, cfg.MaxBackoff) <= backoffDelay(cfg.Seed, 2, 1, cfg.MaxBackoff); cfg.Seed++ {
	}
	nw := twoTrees()
	hold := faultplan.Event{Op: faultplan.OpDelete, A: 1, B: 2}
	del := faultplan.Event{Op: faultplan.OpDelete, A: 2, B: 3}
	ins := faultplan.Event{Op: faultplan.OpInsert, A: 3, B: 2, Raw: 4}
	q := NewQueue(cfg)
	q.Push(hold, del, ins)
	l := &recordingLauncher{}
	drain(t, q, nw, l)

	d, i := l.admittedAt(del), l.admittedAt(ins)
	if d < 0 || i < 0 || i <= d {
		t.Errorf("same-link events admitted in waves %d (queued first) and %d (queued second), want the first strictly earlier", d, i)
	}
	for _, a := range l.seen {
		if a.ev == ins && a.wave <= d {
			t.Errorf("launcher saw the second same-link event in wave %d, before the first was admitted (wave %d)", a.wave, d)
		}
	}
	if st := q.Stats(); st.Retries < 3 {
		t.Errorf("retries = %d, want at least 3 (one claim conflict, two same-link blocks)", st.Retries)
	}
}
