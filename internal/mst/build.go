// Package mst implements the paper's headline algorithms for weighted
// graphs: Build MST (§3.3) — Borůvka phases where every fragment elects a
// leader and runs FindMin-C to pick its minimum outgoing edge — and the
// impromptu repair operations Delete, Insert and WeightChange (§3.2),
// which restore the minimum spanning forest after a single dynamic change
// using FindMin and tree-path searches, with no state kept between
// updates beyond the edge marks themselves.
package mst

import (
	"fmt"
	"math"

	"kkt/internal/congest"
	"kkt/internal/findmin"
	"kkt/internal/rng"
	"kkt/internal/tree"
)

// PhasePolicy controls when Build stops running Borůvka phases.
type PhasePolicy int

const (
	// Adaptive stops as soon as a phase ends with every fragment
	// certifying an empty cut (the forest is maximal). The paper's
	// fixed-phase loop is an upper bound; an adaptive stop changes no
	// marks, only skips provably idle phases.
	Adaptive PhasePolicy = iota + 1
	// Fixed runs the paper's full (40c/C)·ceil(lg n) phases regardless,
	// reproducing the worst-case message count of Lemma 3.
	Fixed
)

// String implements fmt.Stringer.
func (p PhasePolicy) String() string {
	switch p {
	case Adaptive:
		return "adaptive"
	case Fixed:
		return "fixed"
	default:
		return fmt.Sprintf("PhasePolicy(%d)", int(p))
	}
}

// findMinSuccessProb is the paper's constant C: a conservative lower bound
// on the probability FindMin-C returns the minimum outgoing edge
// (Lemma 2 gives 2/3 - n^-c).
const findMinSuccessProb = 0.5

// BuildConfig tunes Build. Use DefaultBuild for the paper-faithful setup.
type BuildConfig struct {
	// Seed drives all randomness (hash draws, alpha draws).
	Seed uint64
	// C is the error exponent: Build succeeds with probability 1 - n^-C.
	C int
	// Policy picks the stopping rule.
	Policy PhasePolicy
	// FindMin configures the per-fragment search; the paper uses
	// FindMin-C inside Build MST. Each fragment's search runs as a pooled
	// continuation state machine stepped by the engine (congest.Fanout).
	FindMin findmin.Config
}

// DefaultBuild returns the paper-faithful configuration.
func DefaultBuild(seed uint64) BuildConfig {
	return BuildConfig{
		Seed:    seed,
		C:       2,
		Policy:  Adaptive,
		FindMin: findmin.Defaults(findmin.Capped),
	}
}

// PhaseStat records one Borůvka phase.
type PhaseStat struct {
	// Fragments is the number of fragments at the start of the phase.
	Fragments int
	// Merges is the number of fragments whose FindMin-C found an edge.
	Merges int
	// Empties is the number of fragments that certified maximality.
	Empties int
	// GaveUps counts FindMin-C runs that hit their iteration cap.
	GaveUps int
	// Messages, Bits and Rounds are the phase's cost; Classes breaks it
	// down by kind class (sorted by class name).
	Messages uint64
	Bits     uint64
	Rounds   int64
	Classes  []congest.ClassCost
}

// BuildResult reports a Build run.
type BuildResult struct {
	// Forest is the final properly-marked edge set.
	Forest [][2]congest.NodeID
	// Phases has one entry per executed phase.
	Phases []PhaseStat
	// Messages, Bits and Rounds are the total cost.
	Messages uint64
	Bits     uint64
	Rounds   int64
}

// MaxPhases is the paper's phase budget (40c/C)·ceil(lg n).
func MaxPhases(n, c int) int {
	lg := math.Ceil(math.Log2(float64(n)))
	if lg < 1 {
		lg = 1
	}
	return int(math.Ceil(40 * float64(c) / findMinSuccessProb * lg))
}

// Build constructs the minimum spanning forest on nw (which must carry no
// marks) and returns the per-phase statistics. On success the marked
// forest is w.h.p. the unique MSF under composite weights.
func Build(nw *congest.Network, pr *tree.Protocol, cfg BuildConfig) (BuildResult, error) {
	if cfg.C < 1 {
		cfg.C = 1
	}
	var result BuildResult
	maxPhases := MaxPhases(nw.N(), cfg.C)
	nw.Spawn("boruvka", func(p *congest.Proc) error {
		fan := congest.Fanout[*fragDriver, findmin.Reason]{
			New: func() *fragDriver { return &fragDriver{m: findmin.NewMachine()} },
		}
		var meter congest.PhaseMeter
		for phase := 1; phase <= maxPhases; phase++ {
			stat, err := runPhase(p, nw, pr, cfg, phase, &meter, &fan)
			if err != nil {
				return err
			}
			result.Phases = append(result.Phases, stat)
			if cfg.Policy == Adaptive && stat.Empties == stat.Fragments {
				return nil // every fragment certified maximality
			}
		}
		if cfg.Policy == Fixed {
			return nil // the paper's budget is exhausted; w.h.p. done
		}
		return fmt.Errorf("mst: phase budget %d exhausted without convergence", maxPhases)
	})
	err := nw.Run()
	if err == nil {
		result.Forest = nw.MarkedEdges()
		c := nw.Counters()
		result.Messages = c.Messages
		result.Bits = c.Bits
		result.Rounds = nw.Now()
	}
	return result, err
}

// fragDriver is the continuation driver of one fragment in one Borůvka
// phase: FindMin-C, then (on success) the Add-Edge broadcast-and-echo. A
// Build reuses its drivers across phases (fragment counts only shrink),
// so the steady-state fan-out allocates neither goroutines nor machines.
type fragDriver struct {
	m       *findmin.Machine
	pr      *tree.Protocol
	leader  congest.NodeID
	outcome *findmin.Reason
	adding  bool // the Add-Edge broadcast is in flight
}

// init arms the driver for one fragment of one phase.
func (d *fragDriver) init(pr *tree.Protocol, leader congest.NodeID, r *rng.RNG, cfg findmin.Config, outcome *findmin.Reason) {
	d.pr, d.leader, d.outcome = pr, leader, outcome
	d.adding = false
	d.m.Reset(pr, leader, r, cfg)
}

// Step implements congest.StepDriver: delegate to the FindMin machine,
// then run the Add-Edge broadcast when it found a cut edge.
func (d *fragDriver) Step(t *congest.Task, w congest.Wake) (congest.SessionID, bool, error) {
	if d.adding {
		_, err := w.Value()
		return 0, true, err
	}
	next, done, err := d.m.Step(t, w)
	if !done {
		return next, false, nil
	}
	if err != nil {
		return 0, true, err
	}
	res, _ := d.m.Result()
	*d.outcome = res.Reason
	if res.Reason != findmin.FoundEdge {
		return 0, true, nil
	}
	// Paper step (c): broadcast Add Edge; endpoints stage marks applied at
	// the phase barrier (step d).
	d.adding = true
	return d.pr.StartBroadcastEcho(d.leader, tree.AddEdgeSpec(res.EdgeNum)), false, nil
}

// runPhase executes one Borůvka phase: elect leaders, run FindMin-C per
// fragment concurrently, broadcast Add-Edge for the found edges, then
// synchronise and apply the staged marks.
func runPhase(p *congest.Proc, nw *congest.Network, pr *tree.Protocol, cfg BuildConfig, phase int, meter *congest.PhaseMeter, fan *congest.Fanout[*fragDriver, findmin.Reason]) (PhaseStat, error) {
	meter.Begin(nw)

	elect, err := pr.ElectAll(p)
	if err != nil {
		return PhaseStat{}, err
	}
	if len(elect.CycleNodes) > 0 {
		return PhaseStat{}, fmt.Errorf("mst: cycle in marked subgraph at phase %d (nodes %v)", phase, elect.CycleNodes)
	}
	stat := PhaseStat{Fragments: len(elect.Leaders)}
	if o := nw.Obs(); o != nil {
		o.PhaseStart("mst", phase, stat.Fragments, nw.Now())
	}

	outcomes, err := fan.Run(p, "findmin", phase, elect.Leaders, func(d *fragDriver, leader congest.NodeID, out *findmin.Reason) {
		d.init(pr, leader, fragmentRand(cfg.Seed, phase, leader), cfg.FindMin, out)
	})
	if err != nil {
		return stat, err
	}
	// Phase barrier ("while time < i*maxTime wait"), then the waiting
	// nodes' local mark application.
	p.AwaitQuiescence()
	nw.ApplyStaged()

	for _, o := range outcomes {
		switch o {
		case findmin.FoundEdge:
			stat.Merges++
		case findmin.EmptyCut:
			stat.Empties++
		case findmin.GaveUp:
			stat.GaveUps++
		}
	}
	cost := meter.End()
	stat.Messages, stat.Bits, stat.Rounds = cost.Messages, cost.Bits, cost.Rounds
	stat.Classes = cost.Classes
	if o := nw.Obs(); o != nil {
		o.PhaseEnd("mst", phase, nw.Now(), cost)
	}
	return stat, nil
}

// fragmentRand derives a fragment-leader's private random stream for one
// phase, deterministic in (seed, phase, leader).
func fragmentRand(seed uint64, phase int, leader congest.NodeID) *rng.RNG {
	return rng.New(seed ^ uint64(phase)*0x9e3779b97f4a7c15 ^ uint64(leader)*0xc2b2ae3d27d4eb4f)
}
