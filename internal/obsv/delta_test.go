package obsv

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"kkt/internal/congest"
)

// driveStep feeds one scripted engine step into the recorder: a round-end
// ledger update plus a rotating mix of phase, repair, session and counter
// traffic. Step counts are chosen so a few thousand steps overflow both
// the round-sample ring (forcing a stride rebase) and the event ring
// (forcing drops) — the two delta paths that rewrite history.
func driveStep(r *Recorder, i int, byKind []congest.KindCount) {
	byKind[0].Messages += uint64(i%7 + 1)
	byKind[0].Bits += uint64(i % 97)
	byKind[1].Messages += uint64(i % 3)
	byKind[1].Bits += uint64(i % 11)
	r.RoundEnd(int64(i+1), uint64(13*i), uint64(190*i), byKind, nil)
	switch i % 5 {
	case 0:
		r.PhaseStart("mst", i/5, 40-i/5, int64(i+1))
	case 1:
		r.PhaseEnd("mst", i/5, int64(i+1), congest.PhaseCosts{
			Messages: uint64(i), Bits: uint64(8 * i), Rounds: int64(i % 9),
			Classes: []congest.ClassCost{{Class: "fragment", Messages: uint64(i), Bits: uint64(4 * i)}},
		})
	case 2:
		r.RepairStart("mst.delete", int64(i+1))
		r.RepairDone("mst.delete", "replace", int64(i+1), int64(i%17+1), uint64(i), uint64(2*i))
	case 3:
		r.SessionOpen(uint64(i), int64(i+1))
		r.SessionDone(uint64(i), int64(i+1), i%30 == 3)
	case 4:
		r.Count("backoff.retry", uint64(i%4+1))
	}
}

// TestDeltaRoundTrip drives a recorder through a long scripted run,
// snapshotting at irregular intervals, and checks that the chain of
// Apply(…, Diff(…)) reconstructions stays exactly equal to the full
// snapshots — including across a sample-ring rebase and event-ring drops,
// and with every delta round-tripped through its JSON wire form.
func TestDeltaRoundTrip(t *testing.T) {
	kinds := []congest.KindID{congest.Kind("obsv.delta.alpha"), congest.Kind("obsv.delta.beta")}
	byKind := make([]congest.KindCount, int(kinds[1])+1)
	_ = kinds

	r := NewRecorder("delta-test")
	prev := r.Snapshot()
	acc := prev
	const steps = 3000
	var sawRebase bool
	for i := 0; i < steps; i++ {
		driveStep(r, i, byKind)
		if i%97 != 0 && i != steps-1 {
			continue
		}
		cur := r.Snapshot()
		d := Diff(prev, cur)
		if d.SamplesRebase {
			sawRebase = true
		}
		blob, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("marshal delta at step %d: %v", i, err)
		}
		var wire Delta
		if err := json.Unmarshal(blob, &wire); err != nil {
			t.Fatalf("unmarshal delta at step %d: %v", i, err)
		}
		acc = Apply(acc, wire)
		if !reflect.DeepEqual(acc, cur) {
			t.Fatalf("delta chain diverged from full snapshot at step %d:\n applied %+v\n want    %+v", i, diffSummary(acc, cur), "")
		}
		prev = cur
	}
	if !sawRebase {
		t.Error("script never overflowed the sample ring; rebase path untested")
	}
	final := r.Snapshot()
	if final.EventsDropped == 0 {
		t.Error("script never overflowed the event ring; drop/trim path untested")
	}
	if d := Diff(final, final); !d.Empty() {
		t.Errorf("Diff of identical snapshots not empty: %+v", d)
	}
}

// diffSummary localizes a DeepEqual failure to the first differing field,
// keeping the failure message readable.
func diffSummary(got, want Snapshot) string {
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			return fmt.Sprintf("field %s: got %+v want %+v",
				gv.Type().Field(i).Name, gv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
	return "snapshots equal field-by-field (aliasing?)"
}

// TestSnapshotConcurrent hammers the recorder from a writer goroutine
// while readers snapshot and diff continuously — the daemon's publishing
// pattern. Run under -race this is the Recorder's thread-safety gate.
func TestSnapshotConcurrent(t *testing.T) {
	congest.Kind("obsv.delta.alpha")
	byKind := make([]congest.KindCount, int(congest.Kind("obsv.delta.beta"))+1)
	r := NewRecorder("race-test")

	const steps = 4000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < steps; i++ {
			driveStep(r, i, byKind)
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := r.Snapshot()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cur := r.Snapshot()
				d := Diff(prev, cur)
				if got := Apply(prev, d); !reflect.DeepEqual(got, cur) {
					t.Errorf("concurrent delta chain diverged: %s", diffSummary(got, cur))
					return
				}
				prev = cur
			}
		}()
	}
	wg.Wait()

	// The writer finished after the readers' last snapshot: one final
	// delta must still reconcile.
	cur := r.Snapshot()
	if got := Apply(cur, Diff(cur, cur)); !reflect.DeepEqual(got, cur) {
		t.Errorf("identity delta not a fixed point: %s", diffSummary(got, cur))
	}
}
