package sketch

import (
	"testing"

	"kkt/internal/race"

	"kkt/internal/congest"
	"kkt/internal/graph"
	"kkt/internal/hashing"
	"kkt/internal/rng"
	"kkt/internal/tree"
)

// markedPath builds a 256-node path network with every edge marked: one
// long tree, so any per-node churn in a broadcast-and-echo multiplies by
// 256 and trips the constant budgets below.
func markedPath(t *testing.T, n int) (*congest.Network, *tree.Protocol) {
	t.Helper()
	g := graph.Path(n, 1<<20, func(k int) uint64 { return uint64(k + 1) })
	nw := congest.NewNetwork(g)
	forest := make([][2]congest.NodeID, 0, n-1)
	for i := 1; i < n; i++ {
		forest = append(forest, [2]congest.NodeID{congest.NodeID(i), congest.NodeID(i + 1)})
	}
	nw.SetForest(forest)
	return nw, tree.Attach(nw)
}

// broadcastAllocs returns the allocations each further broadcast-and-echo
// adds to a warm driver run: a run of 1+extra broadcasts measured against
// a run of one, so the fixed cost of spawning and running the driver
// cancels out.
func broadcastAllocs(t *testing.T, nw *congest.Network, extra int, once func(p *congest.Proc) error) float64 {
	t.Helper()
	run := func(k int) func() {
		return func() {
			nw.Spawn("be", func(p *congest.Proc) error {
				for i := 0; i < k; i++ {
					if err := once(p); err != nil {
						return err
					}
				}
				return nil
			})
			if err := nw.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(1 + extra)() // warm the carriers, tree and engine free lists
	one := testing.AllocsPerRun(5, run(1))
	many := testing.AllocsPerRun(5, run(1+extra))
	return (many - one) / float64(extra)
}

// TestTestOutBroadcastAllocs: once warm, a TestOut broadcast-and-echo —
// 64 lanes, stride lane lookup, unboxed parity-word echoes — over a
// 256-node tree allocates nothing.
func TestTestOutBroadcastAllocs(t *testing.T) {
	race.SkipAllocTest(t)
	const n = 256
	nw, pr := markedPath(t, n)
	runner := NewTestOutRunner()
	h := hashing.NewOddHash(rng.New(11))
	iv := Interval{Lo: 1, Hi: 1 << 40}
	per := broadcastAllocs(t, nw, 16, func(p *congest.Proc) error {
		_, err := p.AwaitU(runner.Start(pr, 1, h, iv, Lanes))
		return err
	})
	if per != 0 {
		t.Errorf("TestOut B&E on %d nodes: %.2f allocs per broadcast, want 0", n, per)
	}
}

// TestHPTestOutBroadcastAllocs: once warm, an HP-TestOut
// broadcast-and-echo allocates nothing — its *hpEval echoes circulate
// through the Carriers instead of one allocation per node.
func TestHPTestOutBroadcastAllocs(t *testing.T) {
	race.SkipAllocTest(t)
	const n = 256
	nw, pr := markedPath(t, n)
	runner := NewHPRunner(NewCarriers())
	alphas := DrawAlphas(rng.New(13), MaxReps)
	iv := Interval{Lo: 1, Hi: 1 << 40}
	per := broadcastAllocs(t, nw, 16, func(p *congest.Proc) error {
		v, err := p.Await(runner.Start(pr, 1, alphas, iv))
		if err == nil {
			runner.Consume(v)
		}
		return err
	})
	if per != 0 {
		t.Errorf("HP-TestOut B&E on %d nodes: %.2f allocs per broadcast, want 0", n, per)
	}
}

// TestSurveyBroadcastAllocs: once warm, a survey broadcast-and-echo
// allocates nothing — its *Survey echoes recycle through the Carriers.
func TestSurveyBroadcastAllocs(t *testing.T) {
	race.SkipAllocTest(t)
	const n = 256
	nw, pr := markedPath(t, n)
	c := NewCarriers()
	per := broadcastAllocs(t, nw, 16, func(p *congest.Proc) error {
		v, err := p.Await(c.StartSurvey(pr, 1))
		if err != nil {
			return err
		}
		if s := c.ConsumeSurvey(v); s.Size != n {
			t.Errorf("survey size = %d, want %d", s.Size, n)
		}
		return nil
	})
	if per != 0 {
		t.Errorf("survey B&E on %d nodes: %.2f allocs per broadcast, want 0", n, per)
	}
}

// TestStrideLaneMatchesSplit cross-checks the O(1) stride lane lookup
// against the materialised Split intervals: every value in the range maps
// to the unique lane that contains it, for adversarial range/lane shapes.
func TestStrideLaneMatchesSplit(t *testing.T) {
	ivs := []Interval{
		{Lo: 1, Hi: 1},
		{Lo: 1, Hi: 63},
		{Lo: 1, Hi: 64},
		{Lo: 1, Hi: 65},
		{Lo: 5, Hi: 4096},
		{Lo: 100, Hi: 101},
		{Lo: 7, Hi: 7 + 630},
	}
	for _, iv := range ivs {
		for _, n := range []int{1, 2, 63, 64} {
			lanes := iv.Split(n)
			if got := iv.NumLanes(n); got != len(lanes) {
				t.Fatalf("%+v n=%d: NumLanes=%d, Split produced %d", iv, n, got, len(lanes))
			}
			stride := iv.Stride(n)
			for v := iv.Lo; v <= iv.Hi; v++ {
				li := int((v - iv.Lo) / stride)
				if li >= len(lanes) || v < lanes[li].Lo || v > lanes[li].Hi {
					t.Fatalf("%+v n=%d: value %d -> lane %d, not contained (lanes %v)", iv, n, v, li, lanes)
				}
				if got := iv.Lane(n, li); got != lanes[li] {
					t.Fatalf("%+v n=%d: Lane(%d)=%+v, Split[%d]=%+v", iv, n, li, got, li, lanes[li])
				}
			}
		}
	}
}
