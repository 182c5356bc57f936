package congest

import (
	"sync"
	"testing"

	"kkt/internal/graph"
	"kkt/internal/rng"
)

// benchNoop is the interned no-op kind shared by the send benchmarks.
var benchNoop = Kind("bench.noop")

// BenchmarkSend measures the Send -> schedule -> deliver cycle on the
// synchronous scheduler: the per-message hot path of every protocol run.
func BenchmarkSend(b *testing.B) {
	g := graph.Path(2, 1, graph.UnitWeights())
	nw := NewNetwork(g)
	nw.RegisterHandler(benchNoop, func(*Network, *NodeState, *Message) {})
	nw.Spawn("sender", func(p *Proc) error {
		for i := 0; i < b.N; i++ {
			nw.Send(1, 2, benchNoop, 0, 8, nil)
			if i%1024 == 1023 {
				p.AwaitQuiescence()
			}
		}
		p.AwaitQuiescence()
		return nil
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := nw.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSendAsync is BenchmarkSend under the asynchronous scheduler:
// it additionally exercises the delay draw, per-link FIFO bookkeeping and
// the priority queue.
func BenchmarkSendAsync(b *testing.B) {
	g := graph.Path(2, 1, graph.UnitWeights())
	nw := NewNetwork(g, WithAsync(4), WithSeed(7))
	nw.RegisterHandler(benchNoop, func(*Network, *NodeState, *Message) {})
	nw.Spawn("sender", func(p *Proc) error {
		for i := 0; i < b.N; i++ {
			nw.Send(1, 2, benchNoop, 0, 8, nil)
			if i%1024 == 1023 {
				p.AwaitQuiescence()
			}
		}
		p.AwaitQuiescence()
		return nil
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := nw.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkNewNetwork measures network construction, dominated by the
// per-node neighbour index build.
func BenchmarkNewNetwork(b *testing.B) {
	g := graph.Complete(96, 1024, graph.UnitWeights())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewNetwork(g)
	}
}

// deliverRandomGraph is BenchmarkDeliverRandom's topology: a connected
// G(n, 3n) on 100k nodes, far past the last-level cache once per-node
// records, half-edges and session state are counted. Built once per
// process: construction is not what the benchmark measures.
var deliverRandomGraph = sync.OnceValue(func() *graph.Graph {
	const n = 100_000
	return graph.GNM(rng.New(5), n, 3*n, 1024, graph.UnitWeights())
})

// walkState is BenchmarkDeliverRandom's per-node session state.
type walkState struct{ visits uint64 }

// BenchmarkDeliverRandom measures one synchronous delivery on a network
// too large for the cache: 1024 random walkers step across a G(n, 3n),
// so consecutive deliveries land on unrelated nodes. The handler has the
// shape of a broadcast's down step — read the receiver's session state,
// scan its incident edges, forward to one neighbour — so the figure is the
// per-message cost a protocol run pays once its working set leaves the
// cache, which BenchmarkSend's two-node path never shows. One op is one
// delivered message.
func BenchmarkDeliverRandom(b *testing.B) {
	const walkers = 1024
	g := deliverRandomGraph()
	nw := NewNetwork(g)
	kind := Kind("bench.walk")
	r := rng.New(3)
	left := 0 // forwards still to send
	nw.RegisterHandler(kind, func(nw *Network, node *NodeState, msg *Message) {
		st := node.SessionState(msg.Session).(*walkState)
		st.visits++
		// Scan every incident edge, as a local minimum search does: the
		// next hop is the edge whose composite weight is least under a
		// fresh random mask.
		coin := r.Uint64()
		next, best := NodeID(0), ^uint64(0)
		for i := range node.Edges {
			he := &node.Edges[i]
			if key := he.Composite(node.ID) ^ coin; key < best {
				next, best = he.Neighbor, key
			}
		}
		if left > 0 {
			left--
			nw.Send(node.ID, next, kind, msg.Session, 8, nil)
		}
	})
	sid := nw.NewSession(nil)
	walk := make([]walkState, g.N+1)
	for v := 1; v <= g.N; v++ {
		nw.Node(NodeID(v)).SetSessionState(sid, &walk[v])
	}
	start := min(walkers, b.N)
	left = b.N - start
	nw.Spawn("walkers", func(p *Proc) error {
		for w := 0; w < start; w++ {
			from := NodeID(1 + r.Intn(g.N))
			nw.Send(from, nw.Node(from).Edges[0].Neighbor, kind, sid, 8, nil)
		}
		p.AwaitQuiescence()
		nw.CompleteSession(sid, nil, nil)
		return nil
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := nw.Run(); err != nil {
		b.Fatal(err)
	}
}
