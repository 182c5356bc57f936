package harness

import (
	"bytes"
	"encoding/json"
	"testing"
)

// smallBuiltinSpecs returns the builtin suite minus the production-scale
// stress scenarios: the cross-check sweeps every algorithm, family and
// scheduler in the registry without paying 100k-node runtimes per shard
// count.
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

// TestShardedReportsByteIdentical is the suite-level determinism contract:
// a full seeded sweep serialized through the canonical report marshaller
// produces byte-identical output at shard counts 1, 2 and 4. This is the
// same property `kkt bench --shards N` exposes, checked in-process.
func TestShardedReportsByteIdentical(t *testing.T) {
	specs := smallBuiltinSpecs(t)
	marshal := func(shards int) []byte {
		cfg := RunConfig{Trials: 2, Seed: 3, Shards: shards}
		report := NewReport("crosscheck", cfg, RunAll(specs, cfg))
		blob, err := report.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	want := marshal(1)
	for _, shards := range []int{2, 4} {
		got := marshal(shards)
		if !bytes.Equal(got, want) {
			t.Errorf("shards=%d: report bytes differ from unsharded run (len %d vs %d)",
				shards, len(got), len(want))
		}
	}
}

// TestShardedScaleScenarioValid runs one mid-size sharded build end to end
// with validation — the -race CI scenario (small enough for instrumented
// builds, big enough that every shard owns real protocol work).
func TestShardedScaleScenarioValid(t *testing.T) {
	spec := Spec{
		Name:   "crosscheck/gnm-2k",
		Family: FamilyGNM, N: 2000,
		Sched: SchedSync,
		Algo:  AlgoMSTBuildAdaptive,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	m4, _, err := RunTrialContext(nil, spec, 11, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !m4.Valid {
		t.Fatal("sharded 2k-node MST build failed validation")
	}
	if testing.Short() {
		return
	}
	m1, _, err := RunTrialContext(nil, spec, 11, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(m1)
	b4, _ := json.Marshal(m4)
	if !bytes.Equal(b1, b4) {
		t.Fatalf("sharded metrics diverge:\n 1: %s\n 4: %s", b1, b4)
	}
}

// TestAsyncShardedScaleScenarioValid is TestShardedScaleScenarioValid for
// the windowed async engine: one mid-size asynchronous MST build on 4
// shards, validated and cross-checked byte-for-byte against the
// single-shard run. Also the async -race CI scenario's in-process twin.
func TestAsyncShardedScaleScenarioValid(t *testing.T) {
	spec := Spec{
		Name:   "crosscheck/gnm-2k-async",
		Family: FamilyGNM, N: 2000,
		Sched: SchedAsync,
		Algo:  AlgoMSTBuildAdaptive,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	m4, _, err := RunTrialContext(nil, spec, 11, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !m4.Valid {
		t.Fatal("async sharded 2k-node MST build failed validation")
	}
	if m4.Shards != 4 {
		t.Fatalf("effective shard count %d, want 4 — async trials must not silently fall back", m4.Shards)
	}
	if testing.Short() {
		return
	}
	m1, _, err := RunTrialContext(nil, spec, 11, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(m1)
	b4, _ := json.Marshal(m4)
	if !bytes.Equal(b1, b4) {
		t.Fatalf("async sharded metrics diverge:\n 1: %s\n 4: %s", b1, b4)
	}
}

// TestEffectiveShardCountClamped: TrialMetrics.Shards reports what the
// engine ran on, not what was requested — a request beyond the node count
// clamps, and the clamp must be visible.
func TestEffectiveShardCountClamped(t *testing.T) {
	spec := Spec{
		Name:   "crosscheck/tiny-ring",
		Family: FamilyRing, N: 16,
		Sched: SchedSync,
		Algo:  AlgoFlood,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	m, _, err := RunTrialContext(nil, spec, 7, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards != 16 {
		t.Fatalf("effective shard count %d, want the node-count clamp 16", m.Shards)
	}
}
