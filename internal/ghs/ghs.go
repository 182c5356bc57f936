// Package ghs is the classical baseline the paper improves on: a
// synchronous Borůvka/GHS-style MST construction with the Gallager-
// Humblet-Spira message profile O(m + n log n) [13].
//
// Each phase, every fragment broadcasts its identity down its tree; every
// node then probes its cheapest incident candidate edges one at a time
// ("test"), and the probed neighbour answers accept (different fragment)
// or reject (same fragment). A rejected edge is internal forever
// (fragments only merge), so both endpoints cache the rejection and never
// test it again — that cache is why GHS is *not* impromptu: it keeps
// O(deg) bits of state per node between operations, which is exactly the
// contrast the paper draws. Each edge is rejected at most once over the
// whole run, giving the O(m) term; the per-phase tree traffic gives the
// O(n log n) term.
package ghs

import (
	"fmt"
	"math"
	"sort"

	"kkt/internal/congest"
	"kkt/internal/tree"
)

// Message kinds, interned once at package init.
var (
	KindFrag   = congest.Kind("ghs.frag")   // fragment-identity broadcast
	KindTest   = congest.Kind("ghs.test")   // edge probe
	KindStatus = congest.Kind("ghs.status") // accept/reject reply
	KindReport = congest.Kind("ghs.report") // convergecast of the minimum candidate
)

// candidate is a minimum-outgoing-edge candidate.
type candidate struct {
	composite uint64
	edgeNum   uint64
	valid     bool
}

// nodeState is one node's GHS automaton state. The rejection cache
// persists across phases (the non-impromptu O(deg) state the paper
// contrasts with); the rest is per-phase. Rejections are a bitmask over
// the node's sorted edge slice (index = position in NodeState.Edges):
// rejLow covers the first 64 incident edges inline, rejHigh spills lazily
// for high-degree nodes — no per-node map, and re-entering a phase
// allocates nothing once warm.
//
// Invariant: the topology must not mutate during a build — edge positions
// key the cache, so an insert/delete would shift them. GHS only runs as a
// build on a static topology (repairs never use it).
type nodeState struct {
	rejLow  uint64
	rejHigh []uint64

	phase      int
	fragID     congest.NodeID
	parent     congest.NodeID
	expected   int       // children reports still missing
	ownBest    candidate // the node's own accepted candidate
	childBest  candidate // minimum over children's reports
	ownDone    bool      // this node's probing finished
	probeIdx   int       // position in the sorted candidate list
	probing    bool      // a test is in flight
	reported   bool      // report went up (or completed, at the root)
	probes     []int32   // candidate edge indices into NodeState.Edges
	probeComps []uint64
	deferred   []deferredTest    // tests from the next phase, answered on entry
	session    congest.SessionID // root only: fragment session to complete
}

// reject caches that the i-th incident edge is internal forever.
func (st *nodeState) reject(i int) {
	if i < 64 {
		st.rejLow |= 1 << uint(i)
		return
	}
	w := (i - 64) >> 6
	for len(st.rejHigh) <= w {
		st.rejHigh = append(st.rejHigh, 0)
	}
	st.rejHigh[w] |= 1 << uint((i-64)&63)
}

// isRejected reports whether the i-th incident edge is cached as internal.
func (st *nodeState) isRejected(i int) bool {
	if i < 64 {
		return st.rejLow&(1<<uint(i)) != 0
	}
	w := (i - 64) >> 6
	if w >= len(st.rejHigh) {
		return false
	}
	return st.rejHigh[w]&(1<<uint((i-64)&63)) != 0
}

// sort.Interface over the parallel probe buffers, cheapest first; *nodeState
// implements it directly so sort.Sort gets a pointer and allocates nothing.
func (st *nodeState) Len() int           { return len(st.probes) }
func (st *nodeState) Less(i, j int) bool { return st.probeComps[i] < st.probeComps[j] }
func (st *nodeState) Swap(i, j int) {
	st.probes[i], st.probes[j] = st.probes[j], st.probes[i]
	st.probeComps[i], st.probeComps[j] = st.probeComps[j], st.probeComps[i]
}

// Protocol is the per-network GHS instance.
type Protocol struct {
	nw    *congest.Network
	state []nodeState
}

// Attach registers the GHS handlers. Call once per network, after
// tree.Attach (Build reuses tree's broadcast-and-echo for Add-Edge).
func Attach(nw *congest.Network) *Protocol {
	g := &Protocol{nw: nw, state: make([]nodeState, nw.N()+1)}
	nw.RegisterHandler(KindFrag, g.onFrag)
	nw.RegisterHandler(KindTest, g.onTest)
	nw.RegisterHandler(KindStatus, g.onStatus)
	nw.RegisterHandler(KindReport, g.onReport)
	return g
}

// PhaseStat records one GHS phase.
type PhaseStat struct {
	// Fragments is the number of fragments at the start of the phase;
	// Merges the number whose minimum-outgoing-edge search succeeded.
	Fragments int
	Merges    int
	// Messages, Bits and Rounds are the phase's cost; Classes breaks it
	// down by kind class (sorted by class name).
	Messages uint64
	Bits     uint64
	Rounds   int64
	Classes  []congest.ClassCost
}

// BuildResult reports a GHS run.
type BuildResult struct {
	Forest [][2]congest.NodeID
	Phases int
	// PhaseStats has one entry per executed phase (len == Phases).
	PhaseStats []PhaseStat
	Messages   uint64
	Bits       uint64
	Rounds     int64
}

// Build constructs the minimum spanning forest deterministically, driving
// each fragment with a continuation task.
func Build(nw *congest.Network, pr *tree.Protocol, g *Protocol) (BuildResult, error) {
	var result BuildResult
	maxPhases := int(math.Ceil(math.Log2(float64(nw.N())))) + 2
	nw.Spawn("ghs", func(p *congest.Proc) error {
		fan := congest.Fanout[*fragDriver, bool]{New: func() *fragDriver { return &fragDriver{} }}
		var meter congest.PhaseMeter
		for phase := 1; ; phase++ {
			if phase > maxPhases {
				return fmt.Errorf("ghs: exceeded %d phases — not converging", maxPhases)
			}
			meter.Begin(nw)
			elect, err := pr.ElectAll(p)
			if err != nil {
				return err
			}
			if len(elect.CycleNodes) > 0 {
				return fmt.Errorf("ghs: cycle in marked subgraph at phase %d", phase)
			}
			result.Phases = phase
			stat := PhaseStat{Fragments: len(elect.Leaders)}
			if o := nw.Obs(); o != nil {
				o.PhaseStart("ghs", phase, stat.Fragments, nw.Now())
			}
			merged, err := fan.Run(p, "ghs", phase, elect.Leaders, func(d *fragDriver, leader congest.NodeID, out *bool) {
				d.init(g, pr, leader, phase, out)
			})
			if err != nil {
				return err
			}
			p.AwaitQuiescence()
			nw.ApplyStaged()
			merges := 0
			for _, m := range merged {
				if m {
					merges++
				}
			}
			stat.Merges = merges
			cost := meter.End()
			stat.Messages, stat.Bits, stat.Rounds = cost.Messages, cost.Bits, cost.Rounds
			stat.Classes = cost.Classes
			result.PhaseStats = append(result.PhaseStats, stat)
			if o := nw.Obs(); o != nil {
				o.PhaseEnd("ghs", phase, nw.Now(), cost)
			}
			if merges == 0 {
				return nil // every fragment is maximal: done, deterministically
			}
		}
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

// fragDriver is the continuation driver of one GHS fragment for one
// phase: enter the phase at the leader, await the convergecast report,
// then (when a candidate was accepted) run the Add-Edge broadcast.
type fragDriver struct {
	g       *Protocol
	pr      *tree.Protocol
	leader  congest.NodeID
	phase   int
	merged  *bool
	started bool // the fragment session is in flight
	adding  bool // the Add-Edge broadcast is in flight
}

// init arms the driver for one fragment of one phase.
func (d *fragDriver) init(g *Protocol, pr *tree.Protocol, leader congest.NodeID, phase int, merged *bool) {
	d.g, d.pr, d.leader, d.phase, d.merged = g, pr, leader, phase, merged
	d.started, d.adding = false, false
}

// Step implements congest.StepDriver.
func (d *fragDriver) Step(t *congest.Task, w congest.Wake) (congest.SessionID, bool, error) {
	nw := d.g.nw
	if !d.started {
		// First step: enter the phase at the leader (which broadcasts the
		// fragment identity); the fragment session completes with the
		// convergecast report of the minimum outgoing candidate.
		d.started = true
		sid := nw.NewSession(nil)
		node := nw.Node(d.leader)
		st := &d.g.state[d.leader]
		st.session = sid
		d.g.enterPhase(nw, node, st, d.phase, d.leader, 0)
		return sid, false, nil
	}
	if err := w.Err(); err != nil {
		return 0, true, err
	}
	if d.adding {
		return 0, true, nil
	}
	v, _ := w.Value()
	cand := v.(candidate)
	if !cand.valid {
		return 0, true, nil
	}
	*d.merged = true
	d.adding = true
	return d.pr.StartBroadcastEcho(d.leader, tree.AddEdgeSpec(cand.edgeNum)), false, nil
}

// enterPhase initialises a node's per-phase state, forwards the fragment
// broadcast to its tree children, answers deferred probes and starts its
// own probing.
func (g *Protocol) enterPhase(nw *congest.Network, node *congest.NodeState, st *nodeState, phase int, fragID, parent congest.NodeID) {
	st.phase = phase
	st.fragID = fragID
	st.parent = parent
	st.ownBest = candidate{}
	st.childBest = candidate{}
	st.ownDone = false
	st.probeIdx = 0
	st.probing = false
	st.reported = false
	st.expected = 0
	for i := range node.Edges {
		he := &node.Edges[i]
		if he.Marked && he.Neighbor != parent {
			st.expected++
			nw.SendU(node.ID, he.Neighbor, KindFrag, 0, 64, packPhaseFrag(phase, fragID))
		}
	}
	// candidate edges: unmarked, not rejected, cheapest first (composites
	// are unique, so the order is deterministic). The parallel buffers
	// recycle across phases.
	st.probes = st.probes[:0]
	st.probeComps = st.probeComps[:0]
	for i := range node.Edges {
		he := &node.Edges[i]
		if !he.Marked && !st.isRejected(i) {
			st.probes = append(st.probes, int32(i))
			st.probeComps = append(st.probeComps, he.Composite)
		}
	}
	sort.Sort(st)
	// answer probes that arrived before we entered the phase.
	deferred := st.deferred
	st.deferred = nil
	for _, d := range deferred {
		g.answerTest(nw, node, d.from, d.tm)
	}
	g.advanceProbe(nw, node, st)
}

// deferredTest is a probe that arrived ahead of its phase; the payload is
// copied out of the Message, which the engine recycles after the handler
// returns.
type deferredTest struct {
	from congest.NodeID
	tm   testMsg
}

type testMsg struct {
	Phase  int
	FragID congest.NodeID
}

// Frag and test messages carry (phase, fragment ID) — two small fields
// packed into the unboxed message word so the per-phase tree broadcast and
// the edge probes never box a payload.
func packPhaseFrag(phase int, fragID congest.NodeID) uint64 {
	return uint64(phase)<<32 | uint64(fragID)
}

func unpackPhaseFrag(u uint64) (phase int, fragID congest.NodeID) {
	return int(u >> 32), congest.NodeID(u & 0xffffffff)
}

// advanceProbe sends the next test, or finishes the node's local part.
// A node always completes its own probing: a child's report must not
// suppress a possibly lighter local candidate.
func (g *Protocol) advanceProbe(nw *congest.Network, node *congest.NodeState, st *nodeState) {
	if st.probing || st.ownDone {
		g.maybeReport(nw, node, st)
		return
	}
	for st.probeIdx < len(st.probes) {
		ei := int(st.probes[st.probeIdx])
		if st.isRejected(ei) { // rejected by the other side mid-phase
			st.probeIdx++
			continue
		}
		st.probing = true
		nw.SendU(node.ID, node.Edges[ei].Neighbor, KindTest, 0, 64, packPhaseFrag(st.phase, st.fragID))
		return
	}
	st.ownDone = true
	g.maybeReport(nw, node, st)
}

// maybeReport sends the report up once probing is done and all children
// reported.
func (g *Protocol) maybeReport(nw *congest.Network, node *congest.NodeState, st *nodeState) {
	if st.probing || !st.ownDone || st.expected > 0 || st.reported {
		return
	}
	st.reported = true
	best := st.ownBest
	if st.childBest.valid && (!best.valid || st.childBest.composite < best.composite) {
		best = st.childBest
	}
	if st.parent == 0 {
		nw.CompleteSession(st.session, best, nil)
		return
	}
	nw.Send(node.ID, st.parent, KindReport, 0, 129, best)
}

func (g *Protocol) onFrag(nw *congest.Network, node *congest.NodeState, msg *congest.Message) {
	phase, fragID := unpackPhaseFrag(msg.U)
	g.enterPhase(nw, node, &g.state[node.ID], phase, fragID, msg.From)
}

func (g *Protocol) onTest(nw *congest.Network, node *congest.NodeState, msg *congest.Message) {
	phase, fragID := unpackPhaseFrag(msg.U)
	g.answerTest(nw, node, msg.From, testMsg{Phase: phase, FragID: fragID})
}

func (g *Protocol) answerTest(nw *congest.Network, node *congest.NodeState, from congest.NodeID, tm testMsg) {
	st := &g.state[node.ID]
	if tm.Phase > st.phase {
		st.deferred = append(st.deferred, deferredTest{from: from, tm: tm})
		return
	}
	accept := st.fragID != tm.FragID
	if !accept {
		// internal forever: cache the rejection on this side too.
		st.reject(node.EdgeIndex(from))
	}
	var word uint64
	if accept {
		word = 1
	}
	nw.SendU(node.ID, from, KindStatus, 0, 8, word)
}

func (g *Protocol) onStatus(nw *congest.Network, node *congest.NodeState, msg *congest.Message) {
	st := &g.state[node.ID]
	st.probing = false
	if msg.U != 0 {
		// probing in increasing weight order: the first accept is the
		// node's minimum outgoing edge.
		he := node.EdgeTo(msg.From)
		st.ownBest = candidate{composite: he.Composite, edgeNum: he.EdgeNum, valid: true}
		st.ownDone = true
	} else {
		st.reject(node.EdgeIndex(msg.From))
		st.probeIdx++
	}
	g.advanceProbe(nw, node, st)
}

func (g *Protocol) onReport(nw *congest.Network, node *congest.NodeState, msg *congest.Message) {
	st := &g.state[node.ID]
	c := msg.Payload.(candidate)
	if c.valid && (!st.childBest.valid || c.composite < st.childBest.composite) {
		st.childBest = c
	}
	st.expected--
	g.maybeReport(nw, node, st)
}
