package obsv

import (
	"testing"

	"kkt/internal/congest"
)

// TestRoundSampleStrideAdapts drives far more rounds than the sample cap
// and checks the adaptive stride keeps the ring bounded while covering the
// whole run.
func TestRoundSampleStrideAdapts(t *testing.T) {
	r := NewRecorder("stride")
	const rounds = 10 * maxRoundSamples
	for i := 0; i < rounds; i++ {
		r.RoundEnd(int64(i), uint64(i), uint64(i)*8, nil, nil)
	}
	s := r.Snapshot()
	if len(s.RoundSamples) > maxRoundSamples {
		t.Fatalf("%d samples exceed cap %d", len(s.RoundSamples), maxRoundSamples)
	}
	if s.SampleStride < 2 {
		t.Errorf("stride stayed %d after %d rounds — never adapted", s.SampleStride, rounds)
	}
	if len(s.RoundSamples) < maxRoundSamples/4 {
		t.Errorf("only %d samples kept — thinning too aggressive", len(s.RoundSamples))
	}
	// Coverage: first sample is round 0, last is near the end, and the
	// series is strictly increasing.
	if s.RoundSamples[0].Now != 0 {
		t.Errorf("first sample at round %d, want 0", s.RoundSamples[0].Now)
	}
	last := s.RoundSamples[len(s.RoundSamples)-1]
	if last.Now < rounds-int64(2*s.SampleStride) {
		t.Errorf("last sample at round %d — tail of the run uncovered (stride %d)", last.Now, s.SampleStride)
	}
	for i := 1; i < len(s.RoundSamples); i++ {
		if s.RoundSamples[i].Now <= s.RoundSamples[i-1].Now {
			t.Fatalf("samples not increasing at %d: %d then %d", i, s.RoundSamples[i-1].Now, s.RoundSamples[i].Now)
		}
	}
	if s.Messages != rounds-1 || s.Now != rounds-1 {
		t.Errorf("totals (now=%d, msgs=%d) lost — want latest round %d", s.Now, s.Messages, rounds-1)
	}
}

// TestEventRingBounded overflows the event ring and checks oldest-first
// eviction with an accurate drop count.
func TestEventRingBounded(t *testing.T) {
	r := NewRecorder("events")
	const total = maxEvents + 100
	for i := 0; i < total; i++ {
		r.RepairStart("op", int64(i))
	}
	s := r.Snapshot()
	if len(s.Events) != maxEvents {
		t.Fatalf("%d events in ring, want %d", len(s.Events), maxEvents)
	}
	if s.EventsDropped != 100 {
		t.Errorf("dropped=%d, want 100", s.EventsDropped)
	}
	// Ring unrolls oldest-first: sequence numbers are consecutive and end
	// at the newest event.
	for i, e := range s.Events {
		if want := uint64(100 + i + 1); e.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, want)
		}
	}
}

// TestPhaseAggAndRepairStats exercises the phase matching and repair
// min/max bookkeeping.
func TestPhaseAggAndRepairStats(t *testing.T) {
	r := NewRecorder("aggs")
	r.PhaseStart("mst", 1, 64, 10)
	r.PhaseEnd("mst", 1, 25, congest.PhaseCosts{
		Messages: 100, Bits: 800, Rounds: 15,
		Classes: []congest.ClassCost{{Class: "tree", Messages: 100, Bits: 800}},
	})
	r.PhaseStart("mst", 2, 16, 25)

	r.RepairDone("mst.delete", "LocalFix", 40, 7, 50, 400)
	r.RepairDone("mst.delete", "Rebuild", 90, 31, 500, 4000)
	r.RepairDone("mst.delete", "LocalFix", 95, 3, 20, 160)

	s := r.Snapshot()
	if len(s.Phases) != 2 {
		t.Fatalf("%d phases, want 2", len(s.Phases))
	}
	p1 := s.Phases[0]
	if !p1.Done || p1.Messages != 100 || p1.Rounds != 15 || p1.EndNow != 25 {
		t.Errorf("phase 1 = %+v — end not folded in", p1)
	}
	if len(p1.Classes) != 1 || p1.Classes[0].Class != "tree" {
		t.Errorf("phase 1 classes = %+v", p1.Classes)
	}
	if s.Phases[1].Done {
		t.Error("phase 2 marked done without PhaseEnd")
	}
	rp := s.Repairs
	if rp.Finished != 3 || rp.RoundsMin != 3 || rp.RoundsMax != 31 || rp.RoundsSum != 41 {
		t.Errorf("repair stats = %+v", rp)
	}
	// Nearest-rank over {3, 7, 31}: P50 = 2nd, P90/P99 = 3rd.
	if rp.RoundsP50 != 7 || rp.RoundsP90 != 31 || rp.RoundsP99 != 31 {
		t.Errorf("latency percentiles = p50:%d p90:%d p99:%d, want 7/31/31",
			rp.RoundsP50, rp.RoundsP90, rp.RoundsP99)
	}
	if rp.ByAction["mst.delete/LocalFix"] != 2 || rp.ByAction["mst.delete/Rebuild"] != 1 {
		t.Errorf("by-action = %v", rp.ByAction)
	}
	// Events carry the full trace in order.
	types := make([]string, len(s.Events))
	for i, e := range s.Events {
		types[i] = e.Type
	}
	want := []string{"phase-start", "phase-end", "phase-start", "repair-done", "repair-done", "repair-done"}
	if len(types) != len(want) {
		t.Fatalf("events %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("events %v, want %v", types, want)
		}
	}
}

// TestSnapshotIsDeepCopy mutates the recorder after snapshotting and checks
// the snapshot is unaffected.
func TestSnapshotIsDeepCopy(t *testing.T) {
	r := NewRecorder("copy")
	r.RoundEnd(5, 10, 80, []congest.KindCount{{Messages: 10, Bits: 80}}, nil)
	r.Count("x", 1)
	s := r.Snapshot()
	r.RoundEnd(6, 20, 160, []congest.KindCount{{Messages: 20, Bits: 160}}, nil)
	r.Count("x", 10)
	if s.Now != 5 || s.Messages != 10 {
		t.Errorf("snapshot mutated: now=%d msgs=%d", s.Now, s.Messages)
	}
	if len(s.ByKind) != 1 || s.ByKind[0].Messages != 10 {
		t.Errorf("kind totals mutated: %v", s.ByKind)
	}
	if s.Counts["x"] != 1 {
		t.Errorf("counts mutated: %v", s.Counts)
	}
}
