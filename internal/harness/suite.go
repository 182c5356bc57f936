package harness

import (
	"os"

	"kkt/internal/faultplan"
)

// Builtin returns the standard scenario suite: every headline path of the
// paper (MST build under both phase policies, the three repair
// operations, ST repair via FindAny, GHS and flooding as baselines)
// across random, ring, grid and expander families, under both schedulers.
// Sizes are chosen so the whole suite runs in seconds; perf PRs scale N
// with dedicated specs.
func Builtin() *Registry {
	reg := NewRegistry()

	// --- MST Build (paper §3.3), adaptive vs fixed phase policy ---
	reg.MustRegister(Spec{
		Name:        "mst-build/gnm/sync",
		Description: "Build MST (adaptive) on connected G(n,3n), synchronous",
		Family:      FamilyGNM, N: 64,
		Sched: SchedSync,
		Algo:  AlgoMSTBuildAdaptive,
	})
	reg.MustRegister(Spec{
		Name:        "mst-build/gnm/async",
		Description: "Build MST (adaptive) on connected G(n,3n), asynchronous",
		Family:      FamilyGNM, N: 64,
		Sched: SchedAsync,
		Algo:  AlgoMSTBuildAdaptive,
	})
	reg.MustRegister(Spec{
		Name:        "mst-build/grid/sync",
		Description: "Build MST (adaptive) on the 8x8 grid",
		Family:      FamilyGrid, N: 64,
		Sched: SchedSync,
		Algo:  AlgoMSTBuildAdaptive,
	})
	reg.MustRegister(Spec{
		Name:        "mst-build/expander/sync",
		Description: "Build MST (adaptive) on a degree-4 expander",
		Family:      FamilyExpander, N: 64,
		Sched: SchedSync,
		Algo:  AlgoMSTBuildAdaptive,
	})
	reg.MustRegister(Spec{
		Name:        "mst-build-fixed/ring/sync",
		Description: "Build MST with the paper's full fixed phase budget (Lemma 3 worst case)",
		Family:      FamilyRing, N: 16,
		Sched: SchedSync,
		Algo:  AlgoMSTBuildFixed,
	})

	// --- Impromptu MSF repair storms (paper §3.2) ---
	reg.MustRegister(Spec{
		Name:        "mst-repair/gnm/async",
		Description: "Delete/Insert/WeightChange storm against a maintained MSF on G(n,3n)",
		Family:      FamilyGNM, N: 48,
		Sched:  SchedAsync,
		Algo:   AlgoMSTRepair,
		Faults: FaultScript{Deletes: 8, Inserts: 8, WeightChanges: 8},
	})
	reg.MustRegister(Spec{
		Name:        "mst-repair/grid/sync",
		Description: "Repair storm on the 7x7 grid, synchronous",
		Family:      FamilyGrid, N: 49,
		Sched:  SchedSync,
		Algo:   AlgoMSTRepair,
		Faults: FaultScript{Deletes: 6, Inserts: 6, WeightChanges: 6},
	})
	reg.MustRegister(Spec{
		Name:        "mst-repair/expander/async",
		Description: "Repair storm on a degree-4 expander, asynchronous",
		Family:      FamilyExpander, N: 48,
		Sched:  SchedAsync,
		Algo:   AlgoMSTRepair,
		Faults: FaultScript{Deletes: 8, Inserts: 8, WeightChanges: 8},
	})

	// --- Concurrent repair storms (fault plans + admission queue) ---
	// The adversarial counterpart of the uniform repair storms above: a
	// compiled fault plan (partition-and-heal, correlated bursts, targeted
	// forest deletes) drains through the admission queue in waves of
	// overlapping repairs. Watchdogs are armed generously — they exist to
	// turn a wedged trial into a structured dump, never to trip a healthy
	// run.
	smallPlan := &faultplan.Plan{
		Partitions: 2, PartitionSize: 6, Heals: 6,
		Bursts: 1, BurstRadius: 1,
		BridgeDeletes: 2, TreeEdgeDeletes: 4, HubDeletes: 2,
		Deletes: 6, Inserts: 6, WeightChanges: 6,
	}
	reg.MustRegister(Spec{
		Name:        "mst-repair/gnm/storm",
		Description: "Adversarial fault plan against a maintained MSF, concurrent repair waves",
		Family:      FamilyGNM, N: 48,
		Sched:    SchedSync,
		Algo:     AlgoMSTRepair,
		Plan:     smallPlan,
		Wave:     8,
		Watchdog: &WatchdogSpec{StallTime: 1 << 20, MaxTime: 1 << 32},
	})
	reg.MustRegister(Spec{
		Name:        "mst-repair/gnm/storm-async",
		Description: "Adversarial fault plan against a maintained MSF, concurrent repair waves under asynchrony",
		Family:      FamilyGNM, N: 48,
		Sched:    SchedAsync,
		Algo:     AlgoMSTRepair,
		Plan:     smallPlan,
		Wave:     8,
		Watchdog: &WatchdogSpec{StallTime: 1 << 20, MaxTime: 1 << 32},
	})
	reg.MustRegister(Spec{
		Name:        "st-repair/gnm/storm",
		Description: "Adversarial fault plan against a maintained spanning forest, concurrent repair waves",
		Family:      FamilyGNM, N: 64,
		Sched: SchedSync,
		Algo:  AlgoSTRepair,
		Plan: &faultplan.Plan{
			Partitions: 2, PartitionSize: 8, Heals: 8,
			Bursts: 1, BurstRadius: 1,
			BridgeDeletes: 2, TreeEdgeDeletes: 6, HubDeletes: 2,
			Deletes: 8, Inserts: 8,
		},
		Wave:     8,
		Watchdog: &WatchdogSpec{StallTime: 1 << 20, MaxTime: 1 << 32},
	})

	// --- ST build and repair (paper §4) ---
	reg.MustRegister(Spec{
		Name:        "st-build/gnm/sync",
		Description: "Build ST via FindAny-C on connected G(n,3n)",
		Family:      FamilyGNM, N: 64,
		Sched: SchedSync,
		Algo:  AlgoSTBuild,
	})
	reg.MustRegister(Spec{
		Name:        "st-repair/gnm/async",
		Description: "Delete/Insert storm against a maintained spanning forest (FindAny)",
		Family:      FamilyGNM, N: 64,
		Sched:  SchedAsync,
		Algo:   AlgoSTRepair,
		Faults: FaultScript{Deletes: 12, Inserts: 12},
	})
	reg.MustRegister(Spec{
		Name:        "st-repair/ring/sync",
		Description: "Delete/Insert storm on the ring: every delete is a bridge or near-bridge",
		Family:      FamilyRing, N: 32,
		Sched:  SchedSync,
		Algo:   AlgoSTRepair,
		Faults: FaultScript{Deletes: 6, Inserts: 6},
	})

	// --- Production-scale stress scenarios ---
	// These prove the zero-alloc core at scale: the whole point of the
	// interned-kind dispatch, pooled messages, calendar queue, and the
	// allocation-free protocol layer (pooled session state, unboxed
	// echoes) is that 100k-node runs are bounded by protocol work, not
	// simulator overhead.
	reg.MustRegister(Spec{
		Name:        "flood/gnm-100k/sync",
		Description: "Theta(m) flood across 100k nodes / 300k edges: raw dispatch throughput",
		Family:      FamilyGNM, N: 100_000,
		Sched: SchedSync,
		Algo:  AlgoFlood,
	})
	reg.MustRegister(Spec{
		Name:        "mst-build/gnm-100k/sync",
		Description: "Build MST (adaptive) on connected G(n,3n) at 100k nodes: the full FindMin-C protocol stack at scale",
		Family:      FamilyGNM, N: 100_000,
		Sched: SchedSync,
		Algo:  AlgoMSTBuildAdaptive,
	})
	reg.MustRegister(Spec{
		Name:        "st-build/gnm-100k/sync",
		Description: "Build ST via FindAny-C on connected G(n,3n) at 100k nodes",
		Family:      FamilyGNM, N: 100_000,
		Sched: SchedSync,
		Algo:  AlgoSTBuild,
	})
	// The windowed async engine's headline scenarios: same scale as the
	// sync 100k builds, but delivered as asynchronous tick groups — the
	// regime the paper's Theorem 1.2 repair algorithms run in.
	reg.MustRegister(Spec{
		Name:        "mst-build/gnm-100k/async",
		Description: "Build MST (adaptive) on connected G(n,3n) at 100k nodes under the asynchronous scheduler (windowed delivery)",
		Family:      FamilyGNM, N: 100_000,
		Sched: SchedAsync,
		Algo:  AlgoMSTBuildAdaptive,
	})
	reg.MustRegister(Spec{
		Name:        "st-build/gnm-100k/async",
		Description: "Build ST via FindAny-C on connected G(n,3n) at 100k nodes under the asynchronous scheduler",
		Family:      FamilyGNM, N: 100_000,
		Sched: SchedAsync,
		Algo:  AlgoSTBuild,
	})
	reg.MustRegister(Spec{
		Name:        "ghs/expander-50k/sync",
		Description: "GHS baseline on a degree-4 expander at 50k nodes",
		Family:      FamilyExpander, N: 50_000,
		Sched: SchedSync,
		Algo:  AlgoGHS,
	})
	reg.MustRegister(Spec{
		Name:        "ghs/expander-100k/sync",
		Description: "GHS baseline on a degree-4 expander at 100k nodes: the bitmask rejection cache at scale",
		Family:      FamilyExpander, N: 100_000,
		Sched: SchedSync,
		Algo:  AlgoGHS,
	})
	// The 10k-repair adversarial storm at 100k nodes: partitions shatter
	// the graph early (each severs a forest subtree behind a single tree
	// edge, so the expensive-looking bridged-off conclusions stay
	// proportional to the region), after which the targeted and
	// background faults land on a many-component forest and the waves
	// genuinely overlap. The launchers re-orient every repair at
	// admission time toward the smaller live side (admit.SideProber), so
	// searches cost the severed region, not the 100k remainder.
	reg.MustRegister(Spec{
		Name:        "mst-repair/gnm-100k/storm",
		Description: "10k-repair adversarial storm (partition, burst, targeted deletes, heals) on 100k nodes through the admission queue",
		Family:      FamilyGNM, N: 100_000,
		Sched: SchedSync,
		Algo:  AlgoMSTRepair,
		// Delete-heavy on purpose: delete repairs root in the small
		// severed side, while same-component insert-style repairs pay a
		// path probe over the whole component — a few hundred of those
		// against the ~90k-node remainder already dominate the bill, so
		// inserts/weight changes/heals stay in the hundreds.
		Plan: &faultplan.Plan{
			Partitions: 128, PartitionSize: 192, Heals: 160,
			Bursts: 12, BurstRadius: 1,
			BridgeDeletes: 32, TreeEdgeDeletes: 8500, HubDeletes: 128,
			Deletes: 4000, Inserts: 150, WeightChanges: 200,
		},
		Wave:     64,
		Watchdog: &WatchdogSpec{StallTime: 1 << 22, MaxTime: 1 << 36},
	})
	reg.MustRegister(Spec{
		Name:        "mst-build/gnm-1m/sync",
		Description: "Build MST (adaptive) on connected G(n,3n) at 1M nodes: the largest build in the suite",
		Family:      FamilyGNM, N: 1_000_000,
		Sched: SchedSync,
		Algo:  AlgoMSTBuildAdaptive,
	})

	// --- Scaling-sweep families (powerlaw / geometric / hypercube) ---
	// The degree-skewed and density-growing topologies the `kkt scaling`
	// sweep ladders over, each pinned here at a mid size so the full
	// protocol stack exercises them (and validates the MSF) on every bench
	// run. The sketch/FindAny machinery is most stressed exactly where
	// degree distributions are skewed (powerlaw hubs) or density grows
	// with n (hypercube's m = n·log₂n/2).
	reg.MustRegister(Spec{
		Name:        "mst-build/powerlaw-2k/sync",
		Description: "Build MST (adaptive) on a preferential-attachment graph at 2k nodes: heavy-tailed degrees",
		Family:      FamilyPowerLaw, N: 2000,
		Sched: SchedSync,
		Algo:  AlgoMSTBuildAdaptive,
	})
	reg.MustRegister(Spec{
		Name:        "mst-build/geometric-2k/sync",
		Description: "Build MST (adaptive) on a random geometric graph at 2k nodes: m ~ n log n, high clustering",
		Family:      FamilyGeometric, N: 2000,
		Sched: SchedSync,
		Algo:  AlgoMSTBuildAdaptive,
	})
	reg.MustRegister(Spec{
		Name:        "mst-build/hypercube-4k/sync",
		Description: "Build MST (adaptive) on the 12-dimensional hypercube: 4096 nodes, 24576 edges",
		Family:      FamilyHypercube, N: 4096,
		Sched: SchedSync,
		Algo:  AlgoMSTBuildAdaptive,
	})

	// --- Baseline comparators ---
	reg.MustRegister(Spec{
		Name:        "ghs/gnm/sync",
		Description: "GHS baseline, O(m + n log n) messages, on G(n,3n)",
		Family:      FamilyGNM, N: 64,
		Sched: SchedSync,
		Algo:  AlgoGHS,
	})
	reg.MustRegister(Spec{
		Name:        "ghs/expander/sync",
		Description: "GHS baseline on a degree-4 expander",
		Family:      FamilyExpander, N: 64,
		Sched: SchedSync,
		Algo:  AlgoGHS,
	})
	reg.MustRegister(Spec{
		Name:        "flood/gnm/sync",
		Description: "Flooding micro-benchmark: the Theta(m) folk-theorem floor",
		Family:      FamilyGNM, N: 64,
		Sched: SchedSync,
		Algo:  AlgoFlood,
	})
	reg.MustRegister(Spec{
		Name:        "flood/grid/async",
		Description: "Flooding on the 8x8 grid under asynchrony",
		Family:      FamilyGrid, N: 64,
		Sched: SchedAsync,
		Algo:  AlgoFlood,
	})

	// --- Debug scenarios (env-gated, never in the default listing) ---
	// debug/stall wires a deliberate engine livelock so the watchdog can be
	// exercised end to end: the trial MUST fail, with a structured dump
	// instead of a hang. Gated behind KKT_DEBUG_SCENARIOS=1 so the default
	// suite contains only scenarios that are supposed to pass.
	if os.Getenv("KKT_DEBUG_SCENARIOS") == "1" {
		reg.MustRegister(Spec{
			Name:        "debug/stall",
			Description: "Deliberate livelock; the armed watchdog must fail the trial with a diagnostic dump",
			Family:      FamilyRing, N: 8,
			Sched:    SchedSync,
			Algo:     AlgoDebugStall,
			Watchdog: &WatchdogSpec{StallTime: 4096},
		})
	}

	return reg
}
