// Package sketch implements the paper's cut-detection primitives as
// broadcast-and-echo aggregations:
//
//   - Survey: the bookkeeping broadcast-and-echo FindMin/FindAny start
//     with (paper FindMin step 2, FindAny step 3a precondition): tree
//     size, degree sums, maxWt(T), maxEdgeNum(T).
//
//   - TestOut (§2.1): does any edge with weight in [j,k] leave the tree?
//     One-sided, succeeds with probability >= 1/8 via an odd hash of edge
//     numbers; w parallel sub-intervals share one broadcast and return one
//     echo bit each (§3.1).
//
//   - HP-TestOut (§2.2): the same question w.h.p., via Schwartz-Zippel
//     multiset equality of the up-edge and down-edge sets over Z_p.
//
// All functions run on the marked tree containing the given root and touch
// only node-local state inside their Local/Combine callbacks.
package sketch

import (
	"kkt/internal/congest"
	"kkt/internal/tree"
)

// Survey is the aggregate a survey broadcast-and-echo returns.
type Survey struct {
	// Size is |T|, the number of nodes in the tree.
	Size int
	// DegreeSum is the total number of edge endpoints incident to T
	// (every incident edge counted at each in-tree endpoint, tree edges
	// included) — the B of HP-TestOut's error parameter and the bound
	// FindAny's hash range must exceed.
	DegreeSum int
	// UnmarkedDegreeSum counts only non-tree incident edge endpoints —
	// the candidate replacement edges.
	UnmarkedDegreeSum int
	// MaxComposite is the maximum composite weight over unmarked
	// incident edges (0 when there are none): the paper's maxWt(T)
	// restricted to candidate edges.
	MaxComposite uint64
	// MaxEdgeNum is the maximum edge number over all incident edges:
	// the paper's maxEdgeNum(T).
	MaxEdgeNum uint64
}

// surveyBits: echo carries five words.
const surveyBits = 5 * 64

// Carriers recycles the boxed echo values of survey and HP-TestOut
// broadcast-and-echoes — *Survey and *hpEval carriers — through two free
// lists: a parent returns each child's carrier as it folds it in, and the
// driver's consume step returns the root's. One Carriers serves every
// probe of a fan-out (a Borůvka build's fragment machines, a repair
// launcher's repairs), so the lists hold as many carriers as the fan-out
// has in flight at once — about one per node — and a warm fan-out's
// broadcasts allocate none. A Carriers belongs to one network: trials are
// single-threaded, and the lists take no locks.
type Carriers struct {
	surveySpec tree.Spec
	surveys    []*Survey
	evals      []*hpEval
}

// NewCarriers returns empty free lists.
func NewCarriers() *Carriers {
	c := &Carriers{}
	// The survey broadcasts no data, so one spec serves every concurrent
	// survey; Down hands the fold functions the free list.
	c.surveySpec = tree.Spec{
		Down:     c,
		DownBits: 8,
		UpBits:   surveyBits,
		Local:    surveyLocal,
		Combine:  surveyCombine,
	}
	return c
}

// takeSurvey pops a recycled survey carrier or allocates one.
func (c *Carriers) takeSurvey() *Survey {
	if n := len(c.surveys); n > 0 {
		s := c.surveys[n-1]
		c.surveys = c.surveys[:n-1]
		return s
	}
	return new(Survey)
}

// takeEval pops a recycled HP-TestOut carrier or allocates one.
func (c *Carriers) takeEval() *hpEval {
	if n := len(c.evals); n > 0 {
		ev := c.evals[n-1]
		c.evals = c.evals[:n-1]
		return ev
	}
	return new(hpEval)
}

func surveyLocal(node *congest.NodeState, down any) any {
	s := down.(*Carriers).takeSurvey()
	*s = Survey{Size: 1, DegreeSum: node.Degree()}
	for i := range node.Edges {
		he := &node.Edges[i]
		if en := he.EdgeNum(node.ID); en > s.MaxEdgeNum {
			s.MaxEdgeNum = en
		}
		if !he.Marked {
			s.UnmarkedDegreeSum++
			if c := he.Composite(node.ID); c > s.MaxComposite {
				s.MaxComposite = c
			}
		}
	}
	return s
}

func surveyCombine(node *congest.NodeState, down, acc any, c tree.ChildEcho) any {
	carriers, s, cs := down.(*Carriers), acc.(*Survey), c.Value.(*Survey)
	s.Size += cs.Size
	s.DegreeSum += cs.DegreeSum
	s.UnmarkedDegreeSum += cs.UnmarkedDegreeSum
	s.MaxComposite = max(s.MaxComposite, cs.MaxComposite)
	s.MaxEdgeNum = max(s.MaxEdgeNum, cs.MaxEdgeNum)
	carriers.surveys = append(carriers.surveys, cs)
	return s
}

// StartSurvey begins the survey broadcast-and-echo from root; the session
// completes with the root's *Survey, which ConsumeSurvey copies out.
func (c *Carriers) StartSurvey(pr *tree.Protocol, root congest.NodeID) congest.SessionID {
	return pr.StartBroadcastEcho(root, &c.surveySpec)
}

// ConsumeSurvey copies the aggregate out of a completed StartSurvey
// session's value and takes the carrier back.
func (c *Carriers) ConsumeSurvey(v any) Survey {
	sp := v.(*Survey)
	c.surveys = append(c.surveys, sp)
	return *sp
}
