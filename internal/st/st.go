// Package st implements the paper's unweighted results: Build ST (§4.2) —
// Borůvka-style phases using FindAny-C instead of FindMin-C, a
// log n / log log n cheaper — and impromptu ST repair (§4.3).
//
// Unlike the MST case, fragments picking arbitrary outgoing edges can
// close a cycle (at most one per merged component). Cycles are detected
// by the leader election timing out (§4.2): the stuck nodes know they are
// on a cycle and know their two cycle neighbours. Each picks one of its
// two cycle edges uniformly at random and sends an "exclude" along it; an
// edge picked from both ends is unmarked, breaking the cycle with
// probability >= 1 - 2^-(k-1) while unmarking at most half the cycle. If
// a second election still finds the cycle, all its edges are unmarked.
package st

import (
	"fmt"
	"math"

	"kkt/internal/congest"
	"kkt/internal/findany"
	"kkt/internal/rng"
	"kkt/internal/tree"
)

// KindExclude is the cycle-breaking message kind, interned at package init.
var KindExclude = congest.Kind("st.exclude")

// Protocol carries the ST-specific handler state: each cycle-breaking
// session's node picks (each node's pick is node-local knowledge — its
// random choice between its two cycle neighbours — held here because the
// per-node election state has already been cleaned up).
type Protocol struct {
	nw    *congest.Network
	tr    *tree.Protocol
	picks map[congest.SessionID]map[congest.NodeID]congest.NodeID
}

// Attach registers the ST handlers. Call once per network, after
// tree.Attach.
func Attach(nw *congest.Network, tr *tree.Protocol) *Protocol {
	sp := &Protocol{
		nw:    nw,
		tr:    tr,
		picks: make(map[congest.SessionID]map[congest.NodeID]congest.NodeID),
	}
	nw.RegisterHandler(KindExclude, sp.onExclude)
	return sp
}

// onExclude: the node across the picked edge unmarks it iff it picked the
// same edge (paper: "If some edge is picked by both its neighbors, then
// this edge is unmarked"). Both endpoints detect the coincidence
// independently and stage their own halves.
func (sp *Protocol) onExclude(nw *congest.Network, node *congest.NodeState, msg *congest.Message) {
	picks, ok := sp.picks[msg.Session]
	if !ok {
		panic(fmt.Sprintf("st: exclude for unknown session %d", msg.Session))
	}
	if mine, ok := picks[node.ID]; ok && mine == msg.From {
		node.StageUnmark(msg.From)
	}
}

// BuildConfig tunes Build.
type BuildConfig struct {
	Seed uint64
	// C is the error exponent.
	C int
	// FindAny configures the per-fragment search; the paper uses
	// FindAny-C inside Build ST.
	FindAny findany.Config
}

// DefaultBuild returns the paper-faithful configuration.
func DefaultBuild(seed uint64) BuildConfig {
	return BuildConfig{Seed: seed, C: 2, FindAny: findany.Defaults(findany.Capped)}
}

// PhaseStat records one Build-ST phase.
type PhaseStat struct {
	Fragments    int
	Merges       int
	Empties      int
	GaveUps      int
	CycleNodes   int // nodes found on cycles at the start of the phase
	CyclesBroken int // cycles broken by the random-exclusion round
	CyclesWiped  int // cycles whose every edge was unmarked
	Messages     uint64
	Bits         uint64
	Rounds       int64
	Classes      []congest.ClassCost // per-kind-class cost breakdown
}

// BuildResult reports a Build run.
type BuildResult struct {
	Forest   [][2]congest.NodeID
	Phases   []PhaseStat
	Messages uint64
	Bits     uint64
	Rounds   int64
}

// MaxPhases is the phase budget, O(log n) as in Appendix B.
func MaxPhases(n, c int) int {
	lg := math.Ceil(math.Log2(float64(n)))
	if lg < 1 {
		lg = 1
	}
	return int(math.Ceil(80 * float64(c) * lg))
}

// Build constructs a spanning forest on nw (which must carry no marks).
func Build(nw *congest.Network, pr *tree.Protocol, sp *Protocol, cfg BuildConfig) (BuildResult, error) {
	if cfg.C < 1 {
		cfg.C = 1
	}
	var result BuildResult
	maxPhases := MaxPhases(nw.N(), cfg.C)
	nw.Spawn("boruvka-st", func(p *congest.Proc) error {
		fan := congest.Fanout[*fragDriver, findany.Reason]{
			New: func() *fragDriver { return &fragDriver{m: findany.NewMachine()} },
		}
		var meter congest.PhaseMeter
		for phase := 1; phase <= maxPhases; phase++ {
			stat, err := sp.runPhase(p, pr, cfg, phase, &meter, &fan)
			if err != nil {
				return err
			}
			result.Phases = append(result.Phases, stat)
			if stat.CycleNodes == 0 && stat.Empties == stat.Fragments {
				return nil
			}
		}
		return fmt.Errorf("st: phase budget %d exhausted without convergence", maxPhases)
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

// fragDriver is the continuation driver of one fragment in one Build-ST
// phase: FindAny-C, then (on success) the Add-Edge broadcast-and-echo.
// Drivers are reused across phases; see mst's fragDriver for the model.
type fragDriver struct {
	m       *findany.Machine
	pr      *tree.Protocol
	leader  congest.NodeID
	outcome *findany.Reason
	adding  bool
}

// init arms the driver for one fragment of one phase.
func (d *fragDriver) init(pr *tree.Protocol, leader congest.NodeID, r *rng.RNG, cfg findany.Config, outcome *findany.Reason) {
	d.pr, d.leader, d.outcome = pr, leader, outcome
	d.adding = false
	d.m.Reset(pr, leader, r, cfg)
}

// Step implements congest.StepDriver.
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
	if res.Reason != findany.FoundEdge {
		return 0, true, nil
	}
	d.adding = true
	return d.pr.StartBroadcastEcho(d.leader, tree.AddEdgeSpec(res.EdgeNum)), false, nil
}

// runPhase: detect and break cycles left by the previous phase's merges,
// then elect leaders and run FindAny-C per fragment.
func (sp *Protocol) runPhase(p *congest.Proc, pr *tree.Protocol, cfg BuildConfig, phase int, meter *congest.PhaseMeter, fan *congest.Fanout[*fragDriver, findany.Reason]) (PhaseStat, error) {
	nw := sp.nw
	meter.Begin(nw)
	var stat PhaseStat

	elect, err := pr.ElectAll(p)
	if err != nil {
		return stat, err
	}
	stat.CycleNodes = len(elect.CycleNodes)
	if len(elect.CycleNodes) > 0 {
		nBefore := countCycles(elect.CycleNodes)
		if err := sp.breakCycles(p, elect.CycleNodes, phase, cfg.Seed); err != nil {
			return stat, err
		}
		// Second election: surviving cycles are wiped entirely.
		elect, err = pr.ElectAll(p)
		if err != nil {
			return stat, err
		}
		if len(elect.CycleNodes) > 0 {
			stat.CyclesWiped = countCycles(elect.CycleNodes)
			for _, cn := range elect.CycleNodes {
				node := nw.Node(cn.Node)
				node.StageUnmark(cn.Left)
				node.StageUnmark(cn.Right)
			}
			nw.ApplyStaged()
			// Third election for this phase's leaders.
			elect, err = pr.ElectAll(p)
			if err != nil {
				return stat, err
			}
			if len(elect.CycleNodes) > 0 {
				return stat, fmt.Errorf("st: cycle survived a full wipe at phase %d", phase)
			}
		}
		stat.CyclesBroken = nBefore - stat.CyclesWiped
	}
	stat.Fragments = len(elect.Leaders)
	if o := nw.Obs(); o != nil {
		o.PhaseStart("st", phase, stat.Fragments, nw.Now())
	}

	outcomes, err := fan.Run(p, "findany", phase, elect.Leaders, func(d *fragDriver, leader congest.NodeID, out *findany.Reason) {
		d.init(pr, leader, fragmentRand(cfg.Seed, phase, leader), cfg.FindAny, out)
	})
	if err != nil {
		return stat, err
	}
	p.AwaitQuiescence()
	nw.ApplyStaged()

	for _, o := range outcomes {
		switch o {
		case findany.FoundEdge:
			stat.Merges++
		case findany.EmptyCut:
			stat.Empties++
		case findany.GaveUp:
			stat.GaveUps++
		}
	}
	cost := meter.End()
	stat.Messages, stat.Bits, stat.Rounds = cost.Messages, cost.Bits, cost.Rounds
	stat.Classes = cost.Classes
	if o := nw.Obs(); o != nil {
		o.PhaseEnd("st", phase, nw.Now(), cost)
	}
	return stat, nil
}

// breakCycles runs the random-exclusion round: every cycle node picks one
// of its two cycle edges uniformly and sends an exclude along it; edges
// picked from both ends get unmarked at the barrier.
func (sp *Protocol) breakCycles(p *congest.Proc, cycleNodes []tree.CycleNode, phase int, seed uint64) error {
	nw := sp.nw
	sid := nw.NewSession(nil)
	picks := make(map[congest.NodeID]congest.NodeID, len(cycleNodes))
	for _, cn := range cycleNodes {
		r := sp.tr.NodeRand(cn.Node, sid)
		pick := cn.Left
		if r.Bool() {
			pick = cn.Right
		}
		picks[cn.Node] = pick
	}
	sp.picks[sid] = picks
	for _, cn := range cycleNodes {
		nw.Send(cn.Node, picks[cn.Node], KindExclude, sid, 8, nil)
	}
	p.AwaitQuiescence()
	nw.ApplyStaged()
	delete(sp.picks, sid)
	nw.CompleteSession(sid, nil, nil)
	return nil
}

// countCycles groups cycle nodes into their disjoint cycles by walking
// neighbour links (simulation bookkeeping for statistics only).
func countCycles(nodes []tree.CycleNode) int {
	next := make(map[congest.NodeID][2]congest.NodeID, len(nodes))
	for _, cn := range nodes {
		next[cn.Node] = [2]congest.NodeID{cn.Left, cn.Right}
	}
	seen := make(map[congest.NodeID]bool, len(nodes))
	cycles := 0
	for _, cn := range nodes {
		if seen[cn.Node] {
			continue
		}
		cycles++
		// walk the cycle
		cur, prev := cn.Node, congest.NodeID(0)
		for !seen[cur] {
			seen[cur] = true
			nb := next[cur]
			step := nb[0]
			if step == prev {
				step = nb[1]
			}
			prev, cur = cur, step
			if _, ok := next[cur]; !ok {
				break // defensive: neighbour not reported as cycle node
			}
		}
	}
	return cycles
}

func fragmentRand(seed uint64, phase int, leader congest.NodeID) *rng.RNG {
	return rng.New(seed ^ uint64(phase)*0x9e3779b97f4a7c15 ^ uint64(leader)*0xff51afd7ed558ccd)
}
