package harness

import (
	"bytes"
	"testing"

	"kkt/internal/congest"
	"kkt/internal/obsv"
)

// smallBuiltinSpecs returns the builtin suite minus the production-scale
// stress scenarios: the sweep covers every algorithm, family and scheduler
// in the registry without paying 100k-node runtimes.
func smallBuiltinSpecs(t *testing.T) []Spec {
	t.Helper()
	var specs []Spec
	for _, s := range Builtin().Specs() {
		if s.N <= 1000 {
			specs = append(specs, s)
		}
	}
	if len(specs) < 15 {
		t.Fatalf("only %d small scenarios — registry shrank?", len(specs))
	}
	return specs
}

// TestObservedReportsByteIdentical is the observer half of the determinism
// contract: attaching a recorder to every trial must not move a single byte
// of the seeded report. Observation is read-only by
// construction (PhaseCosts come from ledger deltas, never from the
// observer), and this test keeps it that way.
func TestObservedReportsByteIdentical(t *testing.T) {
	specs := smallBuiltinSpecs(t)
	marshal := func(observe func(Spec, int) congest.Observer) []byte {
		cfg := RunConfig{Trials: 2, Seed: 5, Observe: observe}
		report := NewReport("obscheck", cfg, RunAll(specs, cfg))
		blob, err := report.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	want := marshal(nil)
	got := marshal(func(spec Spec, trial int) congest.Observer {
		return obsv.NewRecorder(spec.Name)
	})
	if !bytes.Equal(got, want) {
		t.Errorf("observed report bytes differ from unobserved run (len %d vs %d)", len(got), len(want))
	}
}

// TestObserverSeesBuildTimeline runs one observed MST build and checks the
// recorder captured what the report shows: a phase timeline matching the
// trial's phase count, round samples, and completed sessions.
func TestObserverSeesBuildTimeline(t *testing.T) {
	spec := Spec{
		Name:   "obscheck/gnm-small",
		Family: FamilyGNM, N: 256,
		Sched: SchedSync,
		Algo:  AlgoMSTBuildAdaptive,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	rec := obsv.NewRecorder(spec.Name)
	m, _, err := RunTrialContext(nil, spec, 7, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Valid {
		t.Fatal("observed build failed validation")
	}
	if len(m.PhaseCosts) != m.Phases || m.Phases == 0 {
		t.Fatalf("trial has %d phases but %d phase costs", m.Phases, len(m.PhaseCosts))
	}
	snap := rec.Snapshot()
	if got := len(snap.Phases); got != m.Phases {
		t.Errorf("recorder saw %d phases, trial reports %d", got, m.Phases)
	}
	for i, pa := range snap.Phases {
		if !pa.Done {
			t.Errorf("phase %d never ended", i)
		}
		if pa.Messages != m.PhaseCosts[i].Messages || pa.Bits != m.PhaseCosts[i].Bits {
			t.Errorf("phase %d: recorder cost (%d msgs, %d bits) != report cost (%d msgs, %d bits)",
				i, pa.Messages, pa.Bits, m.PhaseCosts[i].Messages, m.PhaseCosts[i].Bits)
		}
	}
	if len(snap.RoundSamples) == 0 {
		t.Error("no round samples recorded")
	}
	if snap.Messages != m.Messages || snap.Bits != m.Bits {
		t.Errorf("recorder totals (%d msgs, %d bits) != trial totals (%d msgs, %d bits)",
			snap.Messages, snap.Bits, m.Messages, m.Bits)
	}
	if snap.Sessions.Opened == 0 || snap.Sessions.Completed != snap.Sessions.Opened {
		t.Errorf("sessions opened=%d completed=%d — want all opened sessions completed",
			snap.Sessions.Opened, snap.Sessions.Completed)
	}
}
