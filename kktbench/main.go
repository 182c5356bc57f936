// Command kktbench is the repository benchmark. It runs one named
// workload for about --seconds seconds, composing every trial from the
// layers' public entry points (see runTrial), checks each result, and
// prints one JSON object as the last line of its output:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (wall time, set-up
// time, peak RSS and the simulated cost); with --trace 1 each trial runs
// twice, untraced and traced, and the metrics are the per-layer ones. A
// traced run also writes its spans, CPU profile and a per-layer report
// under .bench_build/kktbench/. Run it through run.sh, which builds it
// first:
//
//	bash kktbench/run.sh --workload mst-build-20k --seed 1 --seconds 35 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kktbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed; every trial seed of the run derives from it")
	seconds := fs.Float64("seconds", 35, "run length; with the workload's nominal trial time it fixes the number of trials")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "kktbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}

	var res result
	if *traceFlag == 0 {
		res = measure(w, *seed, w.seeds(*seconds), stderr)
	} else {
		var err error
		res, err = traceRun(w, *seed, w.pairs(*seconds), stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "kktbench: %v\n", err)
			res.Correct = false
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "kktbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// trialSeed derives the k-th trial seed of a run (splitmix64, never 0).
func trialSeed(seed uint64, k int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(k+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// exact is what must repeat bit for bit when one trial seed runs twice:
// the simulated cost and the layers' exact counts.
type exact struct {
	Cost                        simCost
	Phases, Events              int
	Repairs, Waves, Retries     int
	StagedDrops, AsyncConflicts uint64
}

func (t trialResult) exact() exact {
	return exact{t.Cost, t.Phases, t.Events, t.Queue.Repairs, t.Queue.Waves, t.Queue.Retries, t.StagedDrops, t.AsyncConflicts}
}

// measure is the untraced run: the first `seeds` trial seeds, then the
// first one once more to check that its simulated counts repeat. Times
// are medians over every trial; the simulated cost is the mean over the
// distinct seeds, the expected cost of one trial.
func measure(w workload, seed uint64, seeds int, stderr io.Writer) result {
	var (
		res   result
		ok    []trialResult
		first *trialResult
		start = time.Now()
	)
	for k := 0; k < seeds; k++ {
		t, err := runTrial(w, trialSeed(seed, k), nil)
		res.Attempted++
		if err != nil {
			res.Failed++
			fmt.Fprintf(stderr, "kktbench: %s trial seed %d: %v\n", w.Name, t.Seed, err)
			continue
		}
		logTrial(stderr, w, t)
		if first == nil {
			first = &t
		}
		ok = append(ok, t)
	}
	distinct := len(ok)

	// The repeat: same seed, same counts, or the run is wrong.
	again, err := runTrial(w, trialSeed(seed, 0), nil)
	res.Attempted++
	switch {
	case err != nil:
		res.Failed++
		fmt.Fprintf(stderr, "kktbench: %s repeat of seed %d: %v\n", w.Name, again.Seed, err)
	case first != nil && first.Seed == again.Seed && first.exact() != again.exact():
		res.Failed++
		fmt.Fprintf(stderr, "kktbench: %s seed %d did not repeat: %+v then %+v\n", w.Name, again.Seed, first.exact(), again.exact())
	default:
		logTrial(stderr, w, again)
		ok = append(ok, again)
	}
	res.Correct = res.Failed == 0 && distinct > 0

	var trialS, setupS, runS []float64
	for _, t := range ok {
		trialS = append(trialS, t.Trial)
		setupS = append(setupS, t.Setup)
		runS = append(runS, t.Run)
	}
	var msgs, bits, rounds float64
	for _, t := range ok[:distinct] {
		msgs += float64(t.Cost.Messages)
		bits += float64(t.Cost.Bits)
		rounds += float64(t.Cost.Rounds)
	}
	d := float64(max(distinct, 1))
	res.set("trial_s", "s", median(trialS))
	res.set("setup_s", "s", median(setupS))
	res.set("run_s", "s", median(runS))
	res.set("peak_rss_mb", "MB", peakRSSMB())
	res.set("sim_messages", "count", msgs/d)
	res.set("sim_bits", "bit", bits/d)
	res.set("sim_rounds", "rounds", rounds/d)
	fmt.Fprintf(stderr, "kktbench: %s seed %d: %d trials (%d seeds) in %.1fs\n", w.Name, seed, res.Attempted, distinct, time.Since(start).Seconds())
	return res
}

func logTrial(stderr io.Writer, w workload, t trialResult) {
	fmt.Fprintf(stderr, "kktbench: %s trial seed %d: setup %.4fs run %.4fs trial %.4fs, %d messages, %d rounds\n",
		w.Name, t.Seed, t.Setup, t.Run, t.Trial, t.Cost.Messages, t.Cost.Rounds)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB is the process's peak resident set (VmHWM), or the Go
// runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return float64(readMem().Sys) / (1 << 20)
}
