package congest

import (
	"container/heap"

	"kkt/internal/rng"
)

// scheduler abstracts the two timing models. schedule queues a sent
// message, with fifo pointing at the sending half-edge's per-directed-link
// FIFO cell (HalfEdge.lastSched; the synchronous scheduler ignores it);
// nextBatch removes and returns the next messages to deliver (one
// synchronous round's worth, or one asynchronous tick group — every event
// sharing the earliest pending deliverAt); empty reports whether anything
// is still in flight; now is the clock.
//
// The slice returned by nextBatch is owned by the scheduler and is only
// valid until the next call — the engine consumes it immediately and nils
// the entries, so buffers recycle without allocation.
type scheduler interface {
	schedule(m *Message, fifo *int64)
	nextBatch() []*Message
	empty() bool
	now() int64
}

// syncScheduler delivers in lockstep rounds: everything sent during round
// r is delivered together at round r+1, in send order (deterministic).
// Two buffers ping-pong between "accumulating" and "being delivered", so
// steady-state rounds allocate nothing.
type syncScheduler struct {
	round   int64
	pending []*Message
	spare   []*Message // last delivered batch, recycled next round
}

func newSyncScheduler() *syncScheduler { return &syncScheduler{} }

func (s *syncScheduler) schedule(m *Message, _ *int64) {
	m.deliverAt = s.round + 1
	s.pending = append(s.pending, m)
}

func (s *syncScheduler) nextBatch() []*Message {
	if len(s.pending) == 0 {
		return nil
	}
	s.round++
	batch := s.pending
	s.pending = s.spare[:0]
	s.spare = batch
	return batch
}

func (s *syncScheduler) empty() bool { return len(s.pending) == 0 }
func (s *syncScheduler) now() int64  { return s.round }

// asyncScheduler orders deliveries by a virtual deliver time = send time +
// uniform delay in [1, maxDelay], with FIFO order preserved per directed
// link (messages on one link never overtake). The per-link FIFO state
// lives in the sending half-edge (the fifo cell handed to schedule), not
// in a map — the send path does no hashing. Ties break by send sequence,
// so runs are deterministic per seed.
//
// The priority queue is a bucketed calendar queue: a ring of width-1 time
// buckets covering the window (clock, clock+span), plus a small binary
// heap for the tail of far-future events (per-link FIFO bumping can push
// deliveries arbitrarily far ahead). Near-term events — the common case,
// since delays are bounded by maxDelay — are appended to their bucket and
// popped in O(1) amortized, with no heap sift and no allocation in steady
// state. Bucket append order equals (deliverAt, seq) order: direct inserts
// happen in send order, and overflow events drain into the ring (in heap
// order) before any later send can share their bucket.
//
// Delivery is windowed: nextBatch extracts up to asyncWindowTicks occupied
// ticks from the calendar in one forward scan and then hands them to the
// engine one tick group at a time — every message of a group shares one
// deliverAt, so a group is the async analogue of a synchronous round.
// Emissions that land at a tick the open
// window already covers (at <= win.end) are conflicts: winInsert routes
// them to their exact (deliverAt, seq) reference position among the
// not-yet-delivered groups, so the delivery sequence is identical to a
// one-event-at-a-time replay. Conflicts always target ticks strictly after
// the group being delivered (delays are >= 1), never an in-flight batch.
type asyncScheduler struct {
	clock    int64
	maxDelay int64
	r        *rng.RNG

	ring     [][]*Message // len is a power of two; one deliverAt per bucket
	mask     int64
	span     int64 // window length; ring entries satisfy deliverAt - clock < span
	inRing   int
	overflow messageHeap

	win asyncWindow
	// spares recycles group/bucket backing slices: extraction swaps a
	// spare into each emptied bucket, delivered groups return here.
	spares [][]*Message
	// lastBatch is the group handed out by the previous nextBatch call; it
	// is recycled at the next call, honouring the scheduler interface's
	// "valid until the next call" batch contract.
	lastBatch []*Message
	// conflicts counts window-conflicting emissions routed by winInsert;
	// exposed through Network.AsyncConflicts for tests and observability.
	conflicts uint64
}

// asyncWindow is the bounded run of tick groups most recently extracted
// from the calendar: times[i] is the deliverAt shared by every message in
// groups[i], strictly increasing; head indexes the next group to deliver;
// end is the last covered tick — the conflict horizon. Events scheduled at
// or before end while the window is open belong inside it.
type asyncWindow struct {
	times  []int64
	groups [][]*Message
	head   int
	end    int64
}

// asyncWindowTicks bounds how many occupied ticks one extraction pulls out
// of the calendar. A var so tests can shrink it to force frequent
// extraction/quiet-stretch interleavings.
var asyncWindowTicks = 16

func newAsyncScheduler(r *rng.RNG, maxDelay int64) *asyncScheduler {
	span := int64(16)
	for span < 4*maxDelay {
		span *= 2
	}
	const maxSpan = 1 << 12
	if span > maxSpan {
		span = maxSpan
	}
	return &asyncScheduler{
		maxDelay: maxDelay,
		r:        r,
		ring:     make([][]*Message, span),
		mask:     span - 1,
		span:     span,
	}
}

func linkKey(from, to NodeID) uint64 { return uint64(from)<<32 | uint64(to) }

func (s *asyncScheduler) schedule(m *Message, fifo *int64) {
	// Drain first: an overflow event whose time has entered the window
	// must reach its bucket before any later send that could share it,
	// or the bucket's append order would no longer be (deliverAt, seq).
	if len(s.overflow) > 0 {
		s.drainOverflow()
	}
	delay := 1 + int64(s.r.Uint64n(uint64(s.maxDelay)))
	at := s.clock + delay
	// FIFO per directed link: never schedule at or before the previous
	// message on this link. A zero cell (no prior traffic) never triggers,
	// since at >= clock+1 >= 1.
	if at <= *fifo {
		at = *fifo + 1
	}
	*fifo = at
	m.deliverAt = at
	// Conflict: the emission lands at a tick the open delivery window
	// already covers. Route it to its reference position inside the window
	// instead of the ring, so windowed delivery stays byte-identical to a
	// one-event-at-a-time replay. at > clock always (delay >= 1), so a
	// conflict never mutates the group currently being delivered.
	if s.win.head < len(s.win.groups) && at <= s.win.end {
		s.winInsert(m)
		return
	}
	s.push(m)
}

// winInsert files a conflicting emission into the open window at its
// (deliverAt, seq) reference position: appended to its tick's group (its
// seq is larger than everything already there — extraction preceded it and
// seqs are monotone), or as a new group spliced in at the sorted spot.
func (s *asyncScheduler) winInsert(m *Message) {
	s.conflicts++
	w := &s.win
	lo, hi := w.head, len(w.times)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if w.times[mid] < m.deliverAt {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(w.times) && w.times[lo] == m.deliverAt {
		w.groups[lo] = append(w.groups[lo], m)
		return
	}
	w.times = append(w.times, 0)
	copy(w.times[lo+1:], w.times[lo:])
	w.times[lo] = m.deliverAt
	w.groups = append(w.groups, nil)
	copy(w.groups[lo+1:], w.groups[lo:])
	w.groups[lo] = append(s.takeSpare(), m)
}

// push files a message into the ring if it lands inside the current
// span, else into the overflow heap.
func (s *asyncScheduler) push(m *Message) {
	if m.deliverAt-s.clock < s.span {
		s.ring[m.deliverAt&s.mask] = append(s.ring[m.deliverAt&s.mask], m)
		s.inRing++
		return
	}
	heap.Push(&s.overflow, m)
}

// drainOverflow moves overflow events that have entered the span into
// their ring buckets, preserving (deliverAt, seq) order. Drained events
// never conflict with an open window: after any drain at clock c the heap
// holds only deliverAt >= c+span, while win.end < c+span — so by the time
// an event drains, the window it could have landed in has been fully
// extracted and closed.
func (s *asyncScheduler) drainOverflow() {
	for len(s.overflow) > 0 && s.overflow[0].deliverAt-s.clock < s.span {
		s.push(heap.Pop(&s.overflow).(*Message))
	}
}

// takeSpare pops a recycled backing slice (length 0) for a bucket or a
// window group, or returns nil (append will allocate once; the slice then
// stays in circulation).
func (s *asyncScheduler) takeSpare() []*Message {
	if n := len(s.spares); n > 0 {
		sp := s.spares[n-1]
		s.spares[n-1] = nil
		s.spares = s.spares[:n-1]
		return sp
	}
	return nil
}

func (s *asyncScheduler) nextBatch() []*Message {
	if s.lastBatch != nil {
		// The engine is done with the previous group (and nil'd its
		// entries); its backing slice goes back into circulation.
		s.spares = append(s.spares, s.lastBatch[:0])
		s.lastBatch = nil
	}
	if s.win.head == len(s.win.groups) {
		// Window exhausted: extract the next one from the calendar.
		s.win.times = s.win.times[:0]
		s.win.groups = s.win.groups[:0]
		s.win.head = 0
		for {
			s.drainOverflow()
			if s.inRing > 0 {
				break
			}
			if len(s.overflow) == 0 {
				return nil
			}
			// Quiet stretch: jump the span to the earliest far event. The
			// clock is observable only after a delivery, which will set it
			// to that event's time anyway.
			s.clock = s.overflow[0].deliverAt - 1
		}
		// Scan forward from the clock. Every live ring event is at a tick
		// in (clock, clock+span) and each bucket holds exactly one
		// deliverAt at a time, so consecutive occupied buckets are the
		// globally earliest ticks in order.
		t := s.clock + 1
		for s.inRing > 0 && len(s.win.times) < asyncWindowTicks {
			if g := s.ring[t&s.mask]; len(g) > 0 {
				s.inRing -= len(g)
				s.ring[t&s.mask] = s.takeSpare()
				s.win.times = append(s.win.times, t)
				s.win.groups = append(s.win.groups, g)
			}
			t++
		}
		s.win.end = s.win.times[len(s.win.times)-1]
	}
	g := s.win.groups[s.win.head]
	s.clock = s.win.times[s.win.head]
	s.win.groups[s.win.head] = nil
	s.win.head++
	s.lastBatch = g
	return g
}

func (s *asyncScheduler) empty() bool {
	return s.inRing == 0 && len(s.overflow) == 0 && s.win.head == len(s.win.groups)
}
func (s *asyncScheduler) now() int64 { return s.clock }

// messageHeap orders by (deliverAt, seq); it backs the calendar queue's
// far-future overflow.
type messageHeap []*Message

func (h messageHeap) Len() int { return len(h) }
func (h messageHeap) Less(i, j int) bool {
	if h[i].deliverAt != h[j].deliverAt {
		return h[i].deliverAt < h[j].deliverAt
	}
	return h[i].seq < h[j].seq
}
func (h messageHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *messageHeap) Push(x any)   { *h = append(*h, x.(*Message)) }
func (h *messageHeap) Pop() any {
	old := *h
	n := len(old)
	m := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return m
}
