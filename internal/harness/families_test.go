package harness

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestScalingFamilyScenariosValid runs the three scaling-family build
// scenarios (powerlaw / geometric / hypercube) end to end: each must
// produce a validated MSF, record the generated edge count, and report
// byte-identical metrics when rerun with the same seed.
func TestScalingFamilyScenariosValid(t *testing.T) {
	reg := Builtin()
	for _, name := range []string{
		"mst-build/powerlaw-2k/sync",
		"mst-build/geometric-2k/sync",
		"mst-build/hypercube-4k/sync",
	} {
		spec, ok := reg.Get(name)
		if !ok {
			t.Fatalf("scenario %s not registered", name)
		}
		m, _, err := RunTrialContext(nil, spec, 11, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !m.Valid {
			t.Errorf("%s: MSF failed validation", name)
		}
		if m.GraphEdges < spec.N-1 {
			t.Errorf("%s: graph_edges=%d, want >= n-1", name, m.GraphEdges)
		}
		if spec.Family == FamilyHypercube && m.GraphEdges != spec.N*12/2 {
			t.Errorf("%s: graph_edges=%d, want exactly n·d/2 = %d", name, m.GraphEdges, spec.N*12/2)
		}
		if testing.Short() {
			continue
		}
		again, _, err := RunTrialContext(nil, spec, 11, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b1, _ := json.Marshal(m)
		b2, _ := json.Marshal(again)
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s: rerun metrics diverge:\n 1: %s\n 2: %s", name, b1, b2)
		}
	}
}
