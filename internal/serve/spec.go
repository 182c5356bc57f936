package serve

import (
	"fmt"
	"math"

	"kkt/internal/bitwidth"
	"kkt/internal/graph"
	"kkt/internal/rng"
)

// GraphSpec names a seeded generated topology: the daemon's (and a trace
// file's) self-contained description of its initial graph. Build is a
// pure function of the spec, so any process holding the spec reconstructs
// the byte-identical topology — the trace header's digest verifies it.
type GraphSpec struct {
	Family string `json:"family"` // gnm | ring | grid | expander | complete | tree
	N      int    `json:"n"`
	M      int    `json:"m,omitempty"`       // gnm edge count (default 3n)
	Degree int    `json:"degree,omitempty"`  // expander degree (default 4)
	MaxRaw uint64 `json:"max_raw,omitempty"` // weight bound (default 1024)
	Seed   uint64 `json:"seed"`
}

// WithDefaults fills the zero-value tunables, mirroring the harness
// registry's defaults.
func (s GraphSpec) WithDefaults() GraphSpec {
	if s.MaxRaw == 0 {
		s.MaxRaw = 1024
	}
	if s.Family == "gnm" && s.M == 0 {
		s.M = 3 * s.N
	}
	if s.Family == "expander" && s.Degree == 0 {
		s.Degree = 4
	}
	return s
}

// Validate rejects malformed specs, checked with defaults applied.
func (s GraphSpec) Validate() error {
	if s.N < 2 {
		return fmt.Errorf("serve: graph n=%d, want >= 2", s.N)
	}
	s = s.WithDefaults()
	if _, err := bitwidth.New(s.N, s.MaxRaw); err != nil {
		return fmt.Errorf("serve: graph spec: %w", err)
	}
	switch s.Family {
	case "gnm":
		if s.M < s.N-1 || s.M > s.N*(s.N-1)/2 {
			return fmt.Errorf("serve: gnm m=%d out of range for n=%d", s.M, s.N)
		}
	case "grid":
		if side := int(math.Sqrt(float64(s.N))); side*side != s.N {
			return fmt.Errorf("serve: grid n=%d is not a perfect square", s.N)
		}
	case "expander":
		if s.Degree < 3 || s.Degree >= s.N {
			return fmt.Errorf("serve: expander degree=%d out of range for n=%d", s.Degree, s.N)
		}
	case "ring", "complete", "tree":
	default:
		return fmt.Errorf("serve: unknown graph family %q", s.Family)
	}
	return nil
}

// Build generates the topology.
func (s GraphSpec) Build() *graph.Graph {
	s = s.WithDefaults()
	r := rng.New(s.Seed)
	w := graph.UniformWeights(r.Split(), s.MaxRaw)
	switch s.Family {
	case "gnm":
		return graph.GNM(r, s.N, s.M, s.MaxRaw, w)
	case "ring":
		return graph.Ring(s.N, s.MaxRaw, w)
	case "grid":
		side := int(math.Sqrt(float64(s.N)))
		return graph.Grid(side, side, s.MaxRaw, w)
	case "expander":
		return graph.Expander(r, s.N, s.Degree, s.MaxRaw, w)
	case "complete":
		return graph.Complete(s.N, s.MaxRaw, w)
	case "tree":
		return graph.RandomTree(r, s.N, s.MaxRaw, w)
	default:
		panic(fmt.Sprintf("serve: unknown family %q", s.Family))
	}
}
