package harness

import "testing"

// TestContinuationDriversCutPeakGoroutines is the footprint gate of the
// continuation driver model, on a build small enough for a test: the only
// driver goroutine is the phase controller, while the first Borůvka
// phase's one-driver-per-node fan-out lives in pooled heap tasks.
func TestContinuationDriversCutPeakGoroutines(t *testing.T) {
	spec := Spec{
		Name:   "drivergate/gnm-512",
		Family: FamilyGNM, N: 512,
		Sched: SchedSync,
		Algo:  AlgoMSTBuildAdaptive,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 5, 9} {
		m, _, err := RunTrial(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Valid {
			t.Fatalf("seed %d: build invalid", seed)
		}
		if m.PeakDriverGoroutines > 1 {
			t.Errorf("seed %d: peaked at %d driver goroutines, want <= 1 (the phase controller)", seed, m.PeakDriverGoroutines)
		}
		// The fan-out still happened — as tasks, one per first-phase fragment.
		if m.PeakDriverTasks < spec.N {
			t.Errorf("seed %d: peaked at %d tasks, want >= %d (the phase-1 fan-out)", seed, m.PeakDriverTasks, spec.N)
		}
		if m.PeakLiveDrivers < spec.N {
			t.Errorf("seed %d: peaked at %d live drivers, want >= %d", seed, m.PeakLiveDrivers, spec.N)
		}
	}
}
