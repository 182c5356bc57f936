package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// pair is one trial seed run twice: untraced, then traced.
type pair struct {
	plain, traced trialResult
	tr            *tracer
}

// layerMetric is one per-layer value. Declared metrics go into the
// result line and BENCHMARK.json; the others appear only in the report,
// because they exist on one workload and would read a constant zero on
// the rest.
type layerMetric struct {
	Name     string
	Unit     string
	Value    float64
	Declared bool
}

// cpuPackages are the packages whose self-CPU share is a declared metric.
var cpuPackages = []string{"congest", "tree", "sketch", "findmin", "findany", "mst", "st", "admit", "graph", "spanning", "runtime"}

// runLayer is the span name of a workload's measured section.
func runLayer(w workload) string {
	switch w.Algo {
	case algoMSTStorm:
		return "admit.drain"
	case algoSTBuild:
		return "st.build"
	}
	return "mst.build"
}

// traceRun is the traced run: each of the first `seeds` trial seeds runs
// untraced and then traced, and the two must agree on every exact count. Per-layer times
// come from the traced trials, exact counts and allocation figures from
// the untraced ones. Spans, the CPU profile and a per-layer report are
// written under .bench_build/kktbench/<workload>/seed-<seed>/ and the
// report is also printed.
func traceRun(w workload, seed uint64, seeds int, stdout, stderr io.Writer) (result, error) {
	var (
		res   result
		pairs []pair
		prof  bytes.Buffer
		start = time.Now()
	)
	// One profile covers the run; only the traced trials carry pprof
	// labels, so the untraced ones drop out when it is read back.
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return res, fmt.Errorf("start CPU profile: %w", err)
	}
	for k := 0; k < seeds; k++ {
		s := trialSeed(seed, k)
		res.Attempted++
		plain, err := runTrial(w, s, nil)
		if err != nil {
			res.Failed++
			fmt.Fprintf(stderr, "kktbench: %s trial seed %d: %v\n", w.Name, s, err)
			continue
		}
		tr := newTracer()
		traced, err := runTrial(w, s, tr)
		switch {
		case err != nil:
			res.Failed++
			fmt.Fprintf(stderr, "kktbench: %s traced trial seed %d: %v\n", w.Name, s, err)
		case traced.exact() != plain.exact():
			res.Failed++
			fmt.Fprintf(stderr, "kktbench: %s seed %d: traced counts %+v differ from untraced %+v\n", w.Name, s, traced.exact(), plain.exact())
		default:
			pairs = append(pairs, pair{plain, traced, tr})
		}
	}
	pprof.StopCPUProfile()
	res.Correct = res.Failed == 0 && len(pairs) > 0
	if len(pairs) == 0 {
		return res, nil
	}

	cpu, err := parseCPUProfile(prof.Bytes(), runLayer(w))
	if err != nil {
		return res, err
	}
	ms := layerMetrics(w, pairs, cpu, float64(res.Failed)/float64(res.Attempted))
	for _, m := range ms {
		if m.Declared {
			res.set(m.Name, m.Unit, m.Value)
		}
	}

	dir := filepath.Join(".bench_build", "kktbench", w.Name, fmt.Sprintf("seed-%d", seed))
	var report strings.Builder
	writeReport(&report, w, seed, pairs, ms, cpu)
	fmt.Fprint(stdout, report.String())
	if err := writeArtifacts(dir, pairs, prof.Bytes(), report.String()); err != nil {
		return res, err
	}
	fmt.Fprintf(stderr, "kktbench: %s seed %d: %d traced pairs in %.1fs, report in %s\n", w.Name, seed, len(pairs), time.Since(start).Seconds(), dir)
	return res, nil
}

// layerMetrics computes every per-layer value of the run. Counts are
// means per trial; times are medians over the traced trials.
func layerMetrics(w workload, pairs []pair, prof cpuProfile, failedFrac float64) []layerMetric {
	var ms []layerMetric
	add := func(name, unit string, v float64) { ms = append(ms, layerMetric{name, unit, v, true}) }
	note := func(name, unit string, v float64) { ms = append(ms, layerMetric{name, unit, v, false}) }
	n := float64(len(pairs))
	mean := func(f func(p pair) float64) float64 {
		var s float64
		for _, p := range pairs {
			s += f(p)
		}
		return s / n
	}
	med := func(f func(p pair) float64) float64 {
		xs := make([]float64, len(pairs))
		for i, p := range pairs {
			xs[i] = f(p)
		}
		return median(xs)
	}
	count := func(name string) float64 {
		return mean(func(p pair) float64 { return float64(p.tr.obs.counts[name]) })
	}
	kind := func(k string) float64 {
		return mean(func(p pair) float64 { return float64(p.plain.ByKind[k].Messages) })
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	add("graph.gen_s", "s", med(func(p pair) float64 { return p.traced.Gen }))
	add("congest.newnet_s", "s", med(func(p pair) float64 { return p.traced.NewNet }))
	add("tree.attach_s", "s", med(func(p pair) float64 { return p.traced.Attach }))
	add("spanning.validate_s", "s", med(func(p pair) float64 { return p.traced.Validate }))
	note("spanning.kruskal_s", "s", med(func(p pair) float64 { return p.traced.Kruskal }))
	note("congest.setforest_s", "s", med(func(p pair) float64 { return p.traced.SetForest }))
	note("faultplan.compile_s", "s", med(func(p pair) float64 { return p.traced.Compile }))

	var msgs, rounds float64
	var roundNs []float64
	for _, p := range pairs {
		msgs += float64(p.plain.Cost.Messages)
		rounds += float64(p.plain.Cost.Rounds)
		for _, d := range p.tr.obs.roundNs {
			roundNs = append(roundNs, float64(d))
		}
	}
	add("congest.ns_per_msg", "ns", med(func(p pair) float64 { return 1e9 * ratio(p.plain.Run, float64(p.plain.Cost.Messages)) }))
	note("congest.msgs_per_s", "1/s", med(func(p pair) float64 { return ratio(float64(p.plain.Cost.Messages), p.plain.Run) }))
	add("congest.msgs_per_round", "msgs/round", ratio(msgs, rounds))
	add("congest.round_us_p50", "us", quantile(roundNs, 0.50)/1e3)
	add("congest.round_us_p99", "us", quantile(roundNs, 0.99)/1e3)
	add("congest.async_conflicts", "count", mean(func(p pair) float64 { return float64(p.plain.AsyncConflicts) }))
	add("congest.staged_drops", "count", mean(func(p pair) float64 { return float64(p.plain.StagedDrops) }))

	declaredKinds := map[string]bool{}
	for _, k := range []string{"tree.down", "tree.up", "tree.markx", "tree.token", "st.exclude"} {
		declaredKinds[k] = true
		add("kind."+k+".msgs", "count", kind(k))
	}
	var kinds []string
	for k := range pairs[0].plain.ByKind {
		if !declaredKinds[k] {
			kinds = append(kinds, k)
		}
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		note("kind."+k+".msgs", "count", kind(k))
	}

	add("tree.bcast_echo", "count", count("tree.bcast_echo"))
	add("tree.elect", "count", count("tree.elect"))
	for _, proto := range []string{"findmin", "findany"} {
		found, empty, gaveUp, errs := count(proto+".found"), count(proto+".empty-cut"), count(proto+".gave-up"), count(proto+".error")
		add(proto+".found", "count", found)
		add(proto+".empty-cut", "count", empty)
		add(proto+".gave-up", "count", gaveUp)
		note(proto+".error", "count", errs)
		add(proto+".success_ratio", "ratio", ratio(found+empty, found+empty+gaveUp+errs))
	}

	phases := func(p pair) float64 { return float64(p.plain.Phases) }
	mstPhases, stPhases, stMax := 0.0, 0.0, 0.0
	switch w.Algo {
	case algoMSTBuild:
		mstPhases = mean(phases)
	case algoSTBuild:
		stPhases = mean(phases)
		for _, p := range pairs {
			stMax = max(stMax, phases(p))
		}
	}
	add("mst.phases", "count", mstPhases)
	add("st.phases", "count", stPhases)
	add("st.phases_max", "count", stMax)
	for _, ps := range phaseTable(pairs) {
		note(fmt.Sprintf("%s.%d.s", ps.proto, ps.phase), "s", ps.seconds)
		note(fmt.Sprintf("%s.%d.fragments", ps.proto, ps.phase), "count", ps.fragments)
	}

	add("faultplan.events", "count", mean(func(p pair) float64 { return float64(p.plain.Events) }))
	var repairs, retries, waves float64
	for _, p := range pairs {
		repairs += float64(p.plain.Queue.Repairs)
		retries += float64(p.plain.Queue.Retries)
		waves += float64(p.plain.Queue.Waves)
	}
	add("admit.waves", "count", waves/n)
	add("admit.repairs", "count", repairs/n)
	add("admit.retries", "count", retries/n)
	add("admit.admit_ratio", "ratio", ratio(repairs, repairs+retries))
	add("admit.repairs_per_wave", "count", ratio(repairs, waves))
	if w.Algo == algoMSTStorm {
		var waveMs []float64
		for _, p := range pairs {
			waveMs = append(waveMs, p.tr.waveMs...)
		}
		note("admit.drain_s", "s", med(func(p pair) float64 { return p.traced.Run }))
		note("admit.launch_s", "s", med(func(p pair) float64 { return float64(p.tr.launchNs) / 1e9 }))
		note("admit.wave_ms_p50", "ms", quantile(waveMs, 0.50))
		note("admit.wave_ms_p99", "ms", quantile(waveMs, 0.99))
		for _, d := range []string{"launched", "inline", "deferred", "empty-scan"} {
			note("admit.decisions."+d, "count", mean(func(p pair) float64 { return float64(p.tr.decisions[d]) }))
		}
	}

	add("runtime.alloc_mb", "MB", mean(func(p pair) float64 { return float64(p.plain.Mem.AllocBytes) / (1 << 20) }))
	add("runtime.mallocs", "count", mean(func(p pair) float64 { return float64(p.plain.Mem.Mallocs) }))
	add("runtime.gc_cycles", "count", mean(func(p pair) float64 { return float64(p.plain.Mem.GCCycles) }))
	add("runtime.gc_pause_ms", "ms", mean(func(p pair) float64 { return float64(p.plain.Mem.GCPauseNs) / 1e6 }))

	declared := map[string]bool{}
	for _, pkg := range cpuPackages {
		declared[pkg] = true
		add("cpu."+pkg+".share", "share", prof.share(func(fn string) bool { return pkgOf(fn) == pkg }))
	}
	var others []string
	for fn := range prof.ByFunc {
		if pkg := pkgOf(fn); !declared[pkg] {
			declared[pkg] = true
			others = append(others, pkg)
		}
	}
	sort.Strings(others)
	for _, pkg := range others {
		note("cpu."+pkg+".share", "share", prof.share(func(fn string) bool { return pkgOf(fn) == pkg }))
	}
	note("cpu.congest.edgePos.share", "share", prof.share(func(fn string) bool { return strings.HasSuffix(fn, "congest.(*NodeState).edgePos") }))
	note("cpu.admit.unionFind.share", "share", prof.share(func(fn string) bool { return strings.Contains(fn, "admit.(*unionFind).") }))
	note("cpu.admit.compSize.share", "share", prof.share(func(fn string) bool { return strings.HasSuffix(fn, "admit.(*SideProber).compSize") }))

	add("trace.overhead_s", "s", med(func(p pair) float64 { return p.traced.Run - p.plain.Run }))
	add("failed_frac", "ratio", failedFrac)
	return ms
}

// phaseStat is the median wall time and fragment count of one protocol
// phase over the traced trials that reached it.
type phaseStat struct {
	proto     string
	phase     int
	seconds   float64
	fragments float64
}

func phaseTable(pairs []pair) []phaseStat {
	type key struct {
		proto string
		phase int
	}
	secs := map[key][]float64{}
	frags := map[key][]float64{}
	for _, p := range pairs {
		for _, s := range p.tr.spans {
			if proto, ok := strings.CutSuffix(s.Name, ".phase"); ok {
				k := key{proto + ".phase", s.Phase}
				secs[k] = append(secs[k], s.End-s.Start)
				frags[k] = append(frags[k], float64(s.Fragments))
			}
		}
	}
	var out []phaseStat
	for k, v := range secs {
		out = append(out, phaseStat{k.proto, k.phase, median(v), median(frags[k])})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].proto != out[j].proto {
			return out[i].proto < out[j].proto
		}
		return out[i].phase < out[j].phase
	})
	return out
}

func writeReport(b *strings.Builder, w workload, seed uint64, pairs []pair, ms []layerMetric, prof cpuProfile) {
	fmt.Fprintf(b, "# kktbench per-layer report: %s, seed %d\n\n", w.Name, seed)
	fmt.Fprintf(b, "%d trial seeds, each run untraced then traced; counts are means per trial, times medians over traced trials.\n\n", len(pairs))
	fmt.Fprintf(b, "| trial seed | run_s untraced | run_s traced | messages | rounds | phases |\n|---|---|---|---|---|---|\n")
	for _, p := range pairs {
		fmt.Fprintf(b, "| %d | %.3f | %.3f | %d | %d | %d |\n", p.plain.Seed, p.plain.Run, p.traced.Run, p.plain.Cost.Messages, p.plain.Cost.Rounds, p.plain.Phases)
	}
	fmt.Fprintf(b, "\n| metric | unit | value | in result line |\n|---|---|---|---|\n")
	for _, m := range ms {
		decl := ""
		if m.Declared {
			decl = "yes"
		}
		fmt.Fprintf(b, "| %s | %s | %.6g | %s |\n", m.Name, m.Unit, m.Value, decl)
	}
	fmt.Fprintf(b, "\nTop functions by self CPU inside `%s` (%.2f s of samples):\n\n| share | function |\n|---|---|\n", runLayer(w), float64(prof.Total)/1e9)
	for _, fn := range prof.top(20) {
		fmt.Fprintf(b, "| %.1f%% | %s |\n", 100*float64(prof.ByFunc[fn])/float64(max(prof.Total, 1)), fn)
	}
	b.WriteString("\n")
}

// writeArtifacts writes the report, every traced trial's spans and the
// run's CPU profile (read it with `go tool pprof -tagfocus layer=<span>`).
func writeArtifacts(dir string, pairs []pair, prof []byte, report string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write artifacts: %w", err)
	}
	type trialSpans struct {
		Seed  uint64 `json:"trial_seed"`
		Spans []span `json:"spans"`
	}
	all := make([]trialSpans, len(pairs))
	for i, p := range pairs {
		all[i] = trialSpans{p.traced.Seed, p.tr.spans}
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), prof, 0o644); err != nil {
		return fmt.Errorf("write artifacts: %w", err)
	}
	spans, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return fmt.Errorf("write artifacts: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), spans, 0o644); err != nil {
		return fmt.Errorf("write artifacts: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "report.md"), []byte(report), 0o644); err != nil {
		return fmt.Errorf("write artifacts: %w", err)
	}
	return nil
}
