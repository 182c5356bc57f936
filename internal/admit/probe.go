package admit

import "kkt/internal/congest"

// SideCap bounds the launcher-side orientation probes, mirroring the fault
// compiler's compile-time cap (faultplan's orientSideCap): a marked-forest
// side this large counts as "big" and the walk stops. The probe is cheap
// relative to a launched repair — a repair's broadcast-and-echoes cost at
// least one message per side node, so a capped BFS is a rounding error —
// and it is what keeps adversarial storms feasible: by admission time the
// compiler's modelled forest has drifted (every repair re-marks a
// replacement edge the model cannot predict), so only a probe of the live
// forest can still find the genuinely small side.
const SideCap = 4096

// SideProber orients a repair at admission time: it orders the two
// endpoints of a faulted edge so the one whose side of the *live* marked
// forest is smaller comes first. Launchers call it after applying the
// admission-time topology mutation (DeleteLink / unmark / InsertLink), so
// a plain component walk from each endpoint measures exactly the tree the
// repair's broadcasts will cover — the deleted or unmarked edge is no
// longer part of the forest, and a just-inserted edge is not yet marked.
//
// The walk is centralized controller work, like the wave-start union-find:
// it sends no messages and costs no rounds. It is deterministic because
// NodeState.Edges is sorted by neighbour ID.
//
// The scratch is reused across calls; a prober is not safe for concurrent
// use (launchers run admission scans single-threaded).
type SideProber struct {
	seen  []bool
	queue []congest.NodeID
}

// NewSideProber returns an empty prober; scratch grows on first use.
func NewSideProber() *SideProber { return &SideProber{} }

// Smaller returns the endpoints ordered so the first one's marked-forest
// component is no larger than the second's, as far as a walk capped at
// SideCap nodes can tell. When both sides reach the cap the original
// order is kept.
func (p *SideProber) Smaller(nw *congest.Network, a, b congest.NodeID) (congest.NodeID, congest.NodeID) {
	sa := p.compSize(nw, a)
	if sa < SideCap {
		if sb := p.compSize(nw, b); sb < sa {
			return b, a
		}
		return a, b
	}
	if p.compSize(nw, b) < SideCap {
		return b, a
	}
	return a, b
}

// compSize counts the nodes reachable from start over marked edges,
// stopping at SideCap.
func (p *SideProber) compSize(nw *congest.Network, start congest.NodeID) int {
	if n := nw.N(); cap(p.seen) < n+1 {
		p.seen = make([]bool, n+1)
	} else {
		p.seen = p.seen[:n+1]
	}
	p.queue = p.queue[:0]
	p.queue = append(p.queue, start)
	p.seen[start] = true
	for qi := 0; qi < len(p.queue) && len(p.queue) < SideCap; qi++ {
		ns := nw.Node(p.queue[qi])
		for i := range ns.Edges {
			he := &ns.Edges[i]
			if !he.Marked || p.seen[he.Neighbor] {
				continue
			}
			p.seen[he.Neighbor] = true
			p.queue = append(p.queue, he.Neighbor)
			if len(p.queue) >= SideCap {
				break
			}
		}
	}
	size := len(p.queue)
	for _, v := range p.queue {
		p.seen[v] = false
	}
	return size
}
