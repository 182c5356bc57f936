package harness

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestScalingFamilyScenariosShardIdentical runs the three scaling-family
// build scenarios (powerlaw / geometric / hypercube) end to end: each must
// produce a validated MSF, record the generated edge count, and report
// byte-identical metrics at shard counts 1 and 4 — the same contract the
// CLI exposes as `kkt run --shards N`.
func TestScalingFamilyScenariosShardIdentical(t *testing.T) {
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
		m4, _, err := RunTrialContext(nil, spec, 11, 4, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !m4.Valid {
			t.Errorf("%s: MSF failed validation", name)
		}
		if m4.GraphEdges < spec.N-1 {
			t.Errorf("%s: graph_edges=%d, want >= n-1", name, m4.GraphEdges)
		}
		if spec.Family == FamilyHypercube && m4.GraphEdges != spec.N*12/2 {
			t.Errorf("%s: graph_edges=%d, want exactly n·d/2 = %d", name, m4.GraphEdges, spec.N*12/2)
		}
		if testing.Short() {
			continue
		}
		m1, _, err := RunTrialContext(nil, spec, 11, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b1, _ := json.Marshal(m1)
		b4, _ := json.Marshal(m4)
		if !bytes.Equal(b1, b4) {
			t.Errorf("%s: sharded metrics diverge:\n 1: %s\n 4: %s", name, b1, b4)
		}
	}
}
