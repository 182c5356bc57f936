package main

import (
	"kkt/internal/faultplan"
)

// Algorithms a workload can run.
const (
	algoMSTBuild = "mst-build" // mst.Build with mst.DefaultBuild (adaptive stop)
	algoMSTStorm = "mst-storm" // Kruskal-seeded MSF, compiled plan drained through admit
	algoSTBuild  = "st-build"  // st.Build with st.DefaultBuild (FindAny-C)
)

// maxRaw is the harness default bound on raw edge weights.
const maxRaw = 1024

// workload is one named benchmark input: a connected G(n, 3n) with uniform
// weights in [1, maxRaw], a scheduler and the protocol that runs on it.
// Everything else comes from the trial seed.
type workload struct {
	Name     string
	Why      string
	N        int
	Async    bool
	MaxDelay int64
	Algo     string
	Plan     *faultplan.Plan
	Wave     int

	// TrialS is the nominal wall time of one untraced trial on the
	// reference machine (REPORT.md), rounded up. A run's trial count is
	// fixed from it and --seconds, so a run's inputs depend on its
	// arguments alone and its simulated cost repeats exactly; at the
	// reference speed the run lasts about --seconds.
	TrialS float64
}

// seeds is the number of distinct trial seeds of an untraced run; one
// more trial repeats the first seed.
func (w workload) seeds(seconds float64) int { return max(1, int(seconds/w.TrialS)-1) }

// pairs is the number of trial seeds of a traced run, each run untraced
// and then traced (slower by up to an eighth).
func (w workload) pairs(seconds float64) int { return max(1, int(seconds/(2.25*w.TrialS))) }

// stormPlan is the mst-repair/gnm-100k/storm plan with every count divided
// by 20, rounded down but kept at least 1 so every targeting strategy
// still fires; PartitionSize and BurstRadius are kept. One such storm
// takes about 1.4 s at n = 10k, so a run covers about 25 seeds. The
// per-seed message cost varies by a quarter to a third of its mean, with
// a long tail; a run that covered fewer seeds (a fifth of the 100k plan
// at n = 20k: two or three) spread too widely from run to run to detect
// a change.
var stormPlan = faultplan.Plan{
	Partitions: 6, PartitionSize: 192, Heals: 8,
	Bursts: 1, BurstRadius: 1,
	BridgeDeletes: 1, TreeEdgeDeletes: 425, HubDeletes: 6,
	Deletes: 200, Inserts: 7, WeightChanges: 10,
}

// workloads are the benchmark's inputs. A run draws its trial seeds from
// its --seed and reports the expected cost over them, so the sizes are
// chosen for trials short enough to average over enough seeds for one run
// to be comparable with the next.
var workloads = []workload{
	{
		Name: "mst-build-20k",
		Why:  "adaptive MST build (FindMin-C over TestOut/HP-TestOut, broadcast-and-echo) at n=20k, sync: the paper's headline path, with a working set far past L2",
		N:    20_000, Algo: algoMSTBuild, TrialS: 5.0,
	},
	{
		Name: "mst-storm-10k",
		Why:  "concurrent repair storm at n=10k, sync: the paper's dynamic half; writes topology and spends its time in faultplan, admit and the storm machines, not in Boruvka phases",
		N:    10_000, Algo: algoMSTStorm, Plan: &stormPlan, Wave: 64, TrialS: 1.6,
	},
	{
		// The phase count of one ST build depends heavily on the seed
		// (11 to 70 phases at every size tried); that tail is meant to
		// show, so a run averages over a few hundred seeds at n = 2k.
		Name: "st-build-async-2k",
		Why:  "ST build via FindAny-C at n=2k, async (max delay 4): tick groups, delay draws and conflicts; the only user of st, findany and sketches; its seed-dependent phase tail shows",
		N:    2_000, Async: true, MaxDelay: 4, Algo: algoSTBuild, TrialS: 0.12,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
