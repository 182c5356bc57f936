package harness

import (
	"sort"

	"kkt/internal/congest"
)

// TrialMetrics is the measured cost of one seeded trial.
type TrialMetrics struct {
	Trial int    `json:"trial"`
	Seed  uint64 `json:"seed"`

	// Driver/memory footprint of the trial's network — the gate for the
	// continuation driver model (a build peaks at a handful of driver
	// goroutines, its phase controllers, however wide its fan-out).
	// Excluded from serialization: footprint is an observation about the
	// process, not the simulated protocol.
	PeakDriverGoroutines int `json:"-"`
	// PeakDriverTasks is the continuation-task high-water mark.
	PeakDriverTasks int `json:"-"`
	// PeakLiveDrivers is the peak of concurrently-unfinished drivers,
	// goroutines and tasks together (the fragment fan-out width).
	PeakLiveDrivers int `json:"-"`
	// HeapSysMB is the growth of the Go heap footprint
	// (runtime.MemStats.HeapSys) across the trial, in MiB: the after-trial
	// sample minus the before-trial sample, clamped at zero. A delta rather
	// than a process-global level, so multi-trial runs report a meaningful
	// per-trial figure (later trials reusing warmed allocations report ~0).
	HeapSysMB uint64 `json:"-"`

	// GraphEdges is the edge count m of the *generated* topology the trial
	// started from — the x-axis of the o(m) scaling sweeps. For repair
	// scenarios this is the pre-storm graph, not the mutated final
	// topology. Seed-determined (byte-identical at any worker count), so
	// it serializes.
	GraphEdges int `json:"graph_edges,omitempty"`

	// Messages/Bits are the congest counters over the measured section
	// (the whole run for builds; the fault script for repairs — forest
	// setup is free). Time is rounds (sync) or virtual time (async).
	Messages uint64 `json:"messages"`
	Bits     uint64 `json:"bits"`
	Time     int64  `json:"time"`

	// Phases is the number of Borůvka phases (build algorithms only).
	Phases int `json:"phases,omitempty"`
	// PhaseCosts is the per-phase cost timeline (build algorithms only):
	// messages/bits/rounds per phase, broken down by kind class. Computed
	// unconditionally from ledger deltas at phase boundaries — never from
	// an observer — so reports stay byte-identical with observation on or
	// off.
	PhaseCosts []PhaseCost `json:"phase_costs,omitempty"`
	// ForestEdges is the size of the final maintained forest.
	ForestEdges int `json:"forest_edges"`
	// Valid reports the reference check: exact MSF (weighted) or maximal
	// spanning forest (unweighted) of the final topology.
	Valid bool `json:"valid"`
	// Actions tallies repair outcomes by name (repair scenarios only).
	Actions map[string]int `json:"actions,omitempty"`
	// Repairs/RepairWaves/RepairRetries account the concurrent-repair
	// admission queue (fault-plan scenarios only): launched repair drivers,
	// executed waves, and admission conflicts (claim failures plus
	// same-edge ordering blocks).
	Repairs       int `json:"repairs,omitempty"`
	RepairWaves   int `json:"repair_waves,omitempty"`
	RepairRetries int `json:"repair_retries,omitempty"`
	// MsgsPerRepair/BitsPerRepair are the amortized per-repair costs: the
	// measured section's traffic divided by launched repairs.
	MsgsPerRepair float64 `json:"msgs_per_repair,omitempty"`
	BitsPerRepair float64 `json:"bits_per_repair,omitempty"`
	// AsyncConflicts counts emissions that landed inside an open async
	// delivery window and were routed back to their reference position
	// (async trials only; see congest.Network.AsyncConflicts).
	AsyncConflicts uint64 `json:"async_conflicts,omitempty"`
	// StagedDrops counts staged mark changes dropped at a barrier because
	// their edge was deleted while the instruction was in flight. Non-zero
	// only when dynamic deletions race repairs; surfaced so the drop path
	// is observable instead of silent.
	StagedDrops uint64 `json:"staged_drops,omitempty"`
	// Error is set when the trial failed outright.
	Error string `json:"error,omitempty"`
}

// PhaseCost is one entry of a trial's per-phase cost timeline.
type PhaseCost struct {
	Phase     int                 `json:"phase"`
	Fragments int                 `json:"fragments"`
	Merges    int                 `json:"merges"`
	Messages  uint64              `json:"messages"`
	Bits      uint64              `json:"bits"`
	Rounds    int64               `json:"rounds"`
	Classes   []congest.ClassCost `json:"classes,omitempty"`
}

// Aggregate summarizes one metric across trials. Percentiles are
// nearest-rank over the successful trials.
type Aggregate struct {
	Mean float64 `json:"mean"`
	P50  uint64  `json:"p50"`
	P99  uint64  `json:"p99"`
	Min  uint64  `json:"min"`
	Max  uint64  `json:"max"`
}

// aggregate computes the summary of one metric; zero-valued on no input.
func aggregate(vals []uint64) Aggregate {
	if len(vals) == 0 {
		return Aggregate{}
	}
	sorted := append([]uint64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum uint64
	for _, v := range sorted {
		sum += v
	}
	rank := func(p float64) uint64 {
		i := int(p*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return Aggregate{
		Mean: float64(sum) / float64(len(sorted)),
		P50:  rank(0.50),
		P99:  rank(0.99),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
	}
}

// Summary is the deterministic aggregation of a scenario's trials.
type Summary struct {
	Messages Aggregate `json:"messages"`
	Bits     Aggregate `json:"bits"`
	Time     Aggregate `json:"time"`
	// Valid/Failed count trials that passed the reference check / errored.
	Valid  int `json:"valid"`
	Failed int `json:"failed"`
	// Actions sums the per-trial repair tallies.
	Actions map[string]int `json:"actions,omitempty"`
	// Repairs/RepairWaves/RepairRetries sum the admission-queue accounting
	// across successful trials (fault-plan scenarios only).
	Repairs       int `json:"repairs,omitempty"`
	RepairWaves   int `json:"repair_waves,omitempty"`
	RepairRetries int `json:"repair_retries,omitempty"`
	// AsyncConflicts sums the per-trial async window-conflict counts.
	AsyncConflicts uint64 `json:"async_conflicts,omitempty"`
	// StagedDrops sums the per-trial staged-mark drop counts.
	StagedDrops uint64 `json:"staged_drops,omitempty"`
	// ByKind sums message traffic per kind across successful trials.
	ByKind map[string]congest.KindCount `json:"by_kind,omitempty"`
	// PhaseCosts sums the per-phase timelines across successful trials,
	// element-wise by phase index (trials of one scenario run the same
	// algorithm, so phase i means the same thing in each).
	PhaseCosts []PhaseCost `json:"phase_costs,omitempty"`
}

// summarize aggregates trials in index order (deterministic for a fixed
// trial slice). Errored trials count as Failed and are excluded from the
// cost aggregates.
func summarize(trials []TrialMetrics, byKind []map[string]congest.KindCount) Summary {
	var sum Summary
	var msgs, bits, times []uint64
	for i, t := range trials {
		if t.Error != "" {
			sum.Failed++
			continue
		}
		if t.Valid {
			sum.Valid++
		}
		msgs = append(msgs, t.Messages)
		bits = append(bits, t.Bits)
		times = append(times, uint64(t.Time))
		sum.StagedDrops += t.StagedDrops
		sum.Repairs += t.Repairs
		sum.RepairWaves += t.RepairWaves
		sum.RepairRetries += t.RepairRetries
		sum.AsyncConflicts += t.AsyncConflicts
		for k, v := range t.Actions {
			if sum.Actions == nil {
				sum.Actions = make(map[string]int)
			}
			sum.Actions[k] += v
		}
		if i < len(byKind) {
			for k, kc := range byKind[i] {
				if sum.ByKind == nil {
					sum.ByKind = make(map[string]congest.KindCount)
				}
				agg := sum.ByKind[k]
				agg.Messages += kc.Messages
				agg.Bits += kc.Bits
				sum.ByKind[k] = agg
			}
		}
		sum.PhaseCosts = addPhaseCosts(sum.PhaseCosts, t.PhaseCosts)
	}
	sum.Messages = aggregate(msgs)
	sum.Bits = aggregate(bits)
	sum.Time = aggregate(times)
	return sum
}

// addPhaseCosts folds one trial's timeline into the running sum,
// element-wise by phase index; class breakdowns merge by class name and
// stay sorted.
func addPhaseCosts(sum, trial []PhaseCost) []PhaseCost {
	for i, pc := range trial {
		for len(sum) <= i {
			sum = append(sum, PhaseCost{Phase: len(sum) + 1})
		}
		s := &sum[i]
		s.Fragments += pc.Fragments
		s.Merges += pc.Merges
		s.Messages += pc.Messages
		s.Bits += pc.Bits
		s.Rounds += pc.Rounds
		s.Classes = mergeClassCosts(s.Classes, pc.Classes)
	}
	return sum
}

// mergeClassCosts adds the per-class tallies of b into a (both sorted by
// class name) and returns the sorted union.
func mergeClassCosts(a, b []congest.ClassCost) []congest.ClassCost {
	for _, cc := range b {
		i := sort.Search(len(a), func(i int) bool { return a[i].Class >= cc.Class })
		if i < len(a) && a[i].Class == cc.Class {
			a[i].Messages += cc.Messages
			a[i].Bits += cc.Bits
			continue
		}
		a = append(a, congest.ClassCost{})
		copy(a[i+1:], a[i:])
		a[i] = cc
	}
	return a
}
