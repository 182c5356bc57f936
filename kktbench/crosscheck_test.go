package main

import (
	"bytes"
	"encoding/json"
	"runtime/pprof"
	"strings"
	"testing"

	"kkt/internal/harness"
)

// harnessSpec is the harness scenario equivalent to a workload.
func harnessSpec(w workload) harness.Spec {
	s := harness.Spec{
		Name: "kktbench/" + w.Name, Family: harness.FamilyGNM, N: w.N, MaxRaw: maxRaw,
		Sched: harness.SchedSync, Plan: w.Plan, Wave: w.Wave,
	}
	if w.Async {
		s.Sched, s.MaxDelay = harness.SchedAsync, w.MaxDelay
	}
	switch w.Algo {
	case algoMSTBuild:
		s.Algo = harness.AlgoMSTBuildAdaptive
	case algoMSTStorm:
		s.Algo = harness.AlgoMSTRepair
	case algoSTBuild:
		s.Algo = harness.AlgoSTBuild
	}
	return s
}

// TestMatchesHarness checks that the benchmark's own layer-by-layer
// composition measures the path `kkt run` takes: for every workload and
// seed it must give exactly the simulated messages, bits and rounds,
// phase and repair counts, and forest validity of harness.RunTrial on the
// equivalent spec. -short checks one seed per workload.
func TestMatchesHarness(t *testing.T) {
	seeds := []uint64{trialSeed(1, 0), trialSeed(2, 0)}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, w := range workloads {
		spec := harnessSpec(w)
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, seed := range seeds {
			want, _, err := harness.RunTrial(spec, seed)
			if err != nil {
				t.Fatalf("%s seed %d: harness: %v", w.Name, seed, err)
			}
			got, err := runTrial(w, seed, nil)
			if err != nil {
				t.Fatalf("%s seed %d: benchmark: %v", w.Name, seed, err)
			}
			if !want.Valid {
				t.Errorf("%s seed %d: harness forest invalid, benchmark accepted it", w.Name, seed)
			}
			wantCost := simCost{want.Messages, want.Bits, want.Time}
			if got.Cost != wantCost {
				t.Errorf("%s seed %d: cost %+v, harness %+v", w.Name, seed, got.Cost, wantCost)
			}
			if got.Phases != want.Phases || got.Queue.Repairs != want.Repairs ||
				got.Queue.Waves != want.RepairWaves || got.Queue.Retries != want.RepairRetries {
				t.Errorf("%s seed %d: phases/repairs/waves/retries %d/%d/%d/%d, harness %d/%d/%d/%d", w.Name, seed,
					got.Phases, got.Queue.Repairs, got.Queue.Waves, got.Queue.Retries,
					want.Phases, want.Repairs, want.RepairWaves, want.RepairRetries)
			}
			if got.StagedDrops != want.StagedDrops || got.AsyncConflicts != want.AsyncConflicts {
				t.Errorf("%s seed %d: staged drops/async conflicts %d/%d, harness %d/%d", w.Name, seed,
					got.StagedDrops, got.AsyncConflicts, want.StagedDrops, want.AsyncConflicts)
			}
		}
	}
}

// TestTracedTrialMatchesUntraced checks that tracing (observer, launcher
// wrapper, pprof labels) leaves every exact count unchanged and records
// the spans and counters the per-layer metrics are built from.
func TestTracedTrialMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		w.N = 600 // a small instance of the same composition
		seed := trialSeed(3, 0)
		plain, err := runTrial(w, seed, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		tr := newTracer()
		traced, err := runTrial(w, seed, tr)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if plain.exact() != traced.exact() {
			t.Errorf("%s: traced %+v, untraced %+v", w.Name, traced.exact(), plain.exact())
		}
		if len(tr.obs.roundNs) == 0 || tr.obs.counts["tree.bcast_echo"] == 0 {
			t.Errorf("%s: observer saw %d rounds, %d broadcasts", w.Name, len(tr.obs.roundNs), tr.obs.counts["tree.bcast_echo"])
		}
		spans := map[string]int{}
		for _, s := range tr.spans {
			spans[s.Name]++
			if s.End < s.Start {
				t.Errorf("%s: span %s ends before it starts", w.Name, s.Name)
			}
		}
		for _, name := range []string{"graph.gen", "congest.newnet", "tree.attach", runLayer(w), "spanning.validate"} {
			if spans[name] != 1 {
				t.Errorf("%s: %d %q spans, want 1", w.Name, spans[name], name)
			}
		}
		if w.Algo == algoMSTStorm && (spans["admit.wave"] != traced.Queue.Waves || tr.decisions["launched"] != traced.Queue.Repairs) {
			t.Errorf("%s: %d wave spans, %d launches; queue ran %d waves, %d repairs", w.Name,
				spans["admit.wave"], tr.decisions["launched"], traced.Queue.Waves, traced.Queue.Repairs)
		}
		if w.Algo != algoMSTStorm && spans[protoOf(w)+".phase"] != traced.Phases {
			t.Errorf("%s: %d phase spans, %d phases", w.Name, spans[protoOf(w)+".phase"], traced.Phases)
		}
	}
}

func protoOf(w workload) string { return strings.SplitN(runLayer(w), ".", 2)[0] }

// TestParseCPUProfile profiles labelled busy work and checks that the
// decoder keeps only the samples under the requested label.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("mst-build-20k")
	w.N = 3000
	tr := newTracer()
	if _, err := runTrial(w, 7, tr); err != nil {
		t.Fatal(err)
	}
	pprof.StopCPUProfile()

	p, err := parseCPUProfile(buf.Bytes(), "mst.build")
	if err != nil {
		t.Fatal(err)
	}
	if p.Total == 0 {
		t.Skip("no CPU samples taken under mst.build")
	}
	var sum int64
	for _, ns := range p.ByFunc {
		sum += ns
	}
	if sum != p.Total {
		t.Errorf("function times sum to %d, total %d", sum, p.Total)
	}
	if s := p.share(func(fn string) bool { return pkgOf(fn) == "congest" }); s <= 0 {
		t.Errorf("congest share %v inside mst.build, want > 0", s)
	}
	none, err := parseCPUProfile(buf.Bytes(), "no-such-layer")
	if err != nil || none.Total != 0 {
		t.Errorf("unknown label: total %d, err %v", none.Total, err)
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"kkt/internal/congest.(*NodeState).edgePos":    "congest",
		"kkt/internal/admit.(*unionFind).find":         "admit",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"sort.Slice":    "other",
		"main.runTrial": "kktbench",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestResultLine checks the last output line's shape on a short run, and
// that bad arguments exit 2 without a result.
func TestResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code != 2 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	w, _ := findWorkload("mst-build-20k")
	w.N = 1000
	res := measure(w, 5, 1, &errOut)
	if !res.Correct || res.Attempted != 2 || res.Failed != 0 {
		t.Fatalf("result %+v", res)
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(line, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 4 {
		t.Errorf("result keys %v, want correct/attempted/failed/metrics", decoded)
	}
	for _, name := range []string{"trial_s", "setup_s", "run_s", "peak_rss_mb", "sim_messages", "sim_bits", "sim_rounds"} {
		if m, ok := res.Metrics[name]; !ok || m.Value <= 0 {
			t.Errorf("metric %s = %+v, want > 0", name, m)
		}
	}
}
