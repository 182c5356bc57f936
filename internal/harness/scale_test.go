package harness

import (
	"bytes"
	"encoding/json"
	"testing"
)

// checkScaleScenario runs one mid-size MST build end to end with
// validation — small enough for -race builds, big enough for real
// protocol work — and, outside -short, reruns it with the same seed and
// requires byte-identical metrics.
func checkScaleScenario(t *testing.T, spec Spec) {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	m, _, err := RunTrialContext(nil, spec, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Valid {
		t.Fatalf("%s failed validation", spec.Name)
	}
	if testing.Short() {
		return
	}
	again, _, err := RunTrialContext(nil, spec, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(m)
	b2, _ := json.Marshal(again)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("%s: rerun metrics diverge:\n 1: %s\n 2: %s", spec.Name, b1, b2)
	}
}

func TestScaleScenarioValid(t *testing.T) {
	checkScaleScenario(t, Spec{
		Name:   "crosscheck/gnm-2k",
		Family: FamilyGNM, N: 2000,
		Sched: SchedSync,
		Algo:  AlgoMSTBuildAdaptive,
	})
}

// TestAsyncScaleScenarioValid is TestScaleScenarioValid for the windowed
// async engine.
func TestAsyncScaleScenarioValid(t *testing.T) {
	checkScaleScenario(t, Spec{
		Name:   "crosscheck/gnm-2k-async",
		Family: FamilyGNM, N: 2000,
		Sched: SchedAsync,
		Algo:  AlgoMSTBuildAdaptive,
	})
}
