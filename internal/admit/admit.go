// Package admit is the concurrent-repair admission queue: it turns a
// compiled fault-plan event list into waves of overlapping repair drivers,
// with deterministic conflict detection on fragment overlap and bounded,
// seeded retry backoff. See doc.go for the safety argument.
package admit

import (
	"kkt/internal/congest"
	"kkt/internal/faultplan"
)

// Skipped is the inline action for events whose target vanished (the edge
// to delete no longer exists, the pair to insert is already linked). The
// fault-plan compiler never emits such events against its own model, but
// the queue tolerates them defensively — a hand-written plan may race
// itself.
const Skipped = "skipped"

// Claim acquires the wave-start components of the given nodes. It is a
// single-pass check-and-acquire: either every component is free (all are
// acquired, returns true) or none is taken (returns false). A Launcher
// must call it at most once per Admit and must not mutate topology before
// a successful claim.
type Claim func(nodes ...congest.NodeID) bool

// Repair is one wave-mode repair in flight: a continuation-task driver
// plus the outcome label, valid once the task finished.
type Repair interface {
	congest.StepDriver
	Action() string
}

// Decision is a Launcher's verdict on one event.
type Decision struct {
	// Deferred: the claim failed; the event stays pending and retries in a
	// later wave. No topology was mutated.
	Deferred bool
	// Inline: the event was fully resolved at admission (no-op or skipped)
	// with no driver to run. Action carries the outcome label.
	Inline bool
	// Action is the outcome label for inline decisions (e.g. "no-op",
	// Skipped).
	Action string
	// Op is the observer operation label ("mst.delete", "st.insert", ...);
	// set for every non-deferred decision.
	Op string
	// Driver is the repair to launch in the current wave (nil for
	// inline/deferred decisions). The launcher has already applied the
	// event's topology mutation under the granted claim.
	Driver Repair
}

// Launcher adapts one maintained structure (weighted MSF, spanning forest)
// to the queue. Admit inspects an event against live topology and either
// resolves it inline, defers it (claim conflict), or — after acquiring the
// needed components via claim and applying the topology mutation — returns
// a driver for the wave. Release returns a finished driver to the
// launcher's pool.
type Launcher interface {
	Admit(ev faultplan.Event, opSeed uint64, claim Claim) Decision
	Release(r Repair)
}

// Config tunes the queue.
type Config struct {
	// Wave caps how many repair drivers run concurrently in one wave
	// (default 64).
	Wave int
	// MaxRetries bounds backoff growth: after this many conflicts an event
	// retries every wave (delay 0) until admitted (default 8).
	MaxRetries int
	// MaxBackoff bounds the seeded backoff delay, in waves (default 4).
	MaxBackoff int
	// Seed feeds the per-event operation seeds and the backoff hash.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Wave <= 0 {
		c.Wave = 64
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 8
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 4
	}
	return c
}

// Stats is the queue's cost accounting.
type Stats struct {
	// Repairs counts launched repair drivers; the amortization denominator.
	Repairs int
	// Inline counts events resolved at admission with no driver (includes
	// Skipped).
	Inline int
	// Skipped counts inline events whose target had vanished.
	Skipped int
	// Waves counts executed (non-empty) waves.
	Waves int
	// Retries counts admission conflicts (claim failures and same-edge
	// ordering blocks).
	Retries int
	// Actions tallies outcome labels across inline and driver repairs.
	Actions map[string]int
}

// item is one pending event.
type item struct {
	idx     int // index in the original event list (stable op seed)
	ev      faultplan.Event
	delay   int // waves to sit out before the next admission attempt
	retries int
}

// launchItem is one admitted driver awaiting its wave.
type launchItem struct {
	idx    int
	op     string
	driver Repair
	task   *congest.Task
}

// opSeedPrime matches the sequential storm harness's per-op seed mixing.
const opSeedPrime = 0xd6e8feb86659fd93

// backoffDelay is the seeded, deterministic retry delay in waves: a pure
// hash of (seed, event index, retry count), so reports stay byte-identical
// for a fixed seed.
func backoffDelay(seed uint64, idx, retries, maxBackoff int) int {
	h := seed ^ uint64(idx+1)*0x9e3779b97f4a7c15 ^ uint64(retries)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	return 1 + int(h%uint64(maxBackoff))
}

// edgeOf is the order key: events on the same unordered pair must admit in
// list order (a heal insert must not overtake the partition delete that
// freed its slot).
func edgeOf(ev faultplan.Event) uint64 {
	a, b := uint64(ev.A), uint64(ev.B)
	if a > b {
		a, b = b, a
	}
	return a<<32 | b
}

// Queue is the drainable, suspendable form of the admission loop: events
// are Pushed in batches (a serving daemon feeds it one ingest epoch at a
// time), waves run one at a time via RunWave or to exhaustion via Drain,
// and Suspend captures the pending backlog so a checkpointed daemon can
// resume the exact admission schedule. Event indices are assigned at Push
// and grow monotonically across batches: an event's operation seed is a
// pure function of (Config.Seed, index), so a resumed queue derives the
// same per-op seeds as an uninterrupted one.
type Queue struct {
	cfg   Config
	stats Stats

	pending []*item
	nextIdx int

	// per-wave scratch, reused across waves
	uf      *unionFind
	claimed map[int32]bool
	blocked map[uint64]bool
	wave    []launchItem
}

// NewQueue returns an empty queue with the given (defaulted) config.
func NewQueue(cfg Config) *Queue {
	cfg = cfg.withDefaults()
	return &Queue{
		cfg:     cfg,
		stats:   Stats{Actions: make(map[string]int)},
		uf:      newUnionFind(),
		claimed: make(map[int32]bool),
		blocked: make(map[uint64]bool),
		wave:    make([]launchItem, 0, cfg.Wave),
	}
}

// Push appends events to the pending backlog, assigning each the next
// monotone index.
func (q *Queue) Push(events ...faultplan.Event) {
	for _, ev := range events {
		q.pending = append(q.pending, &item{idx: q.nextIdx, ev: ev})
		q.nextIdx++
	}
}

// Pending returns the number of events not yet resolved (admitted inline,
// or launched and finished).
func (q *Queue) Pending() int { return len(q.pending) }

// Stats returns the queue's cumulative accounting. The Actions map is
// shared with the queue; callers must not mutate it while draining.
func (q *Queue) Stats() Stats { return q.stats }

// RunWave executes one admission scan and, if any drivers were admitted,
// one engine wave: recompute wave-start component labels from the marked
// forest, admit pending events in order under the claims discipline, run
// all admitted drivers concurrently as continuation tasks on one engine
// Run, then apply staged marks. An all-backoff scan launches nothing but
// still makes progress (delays decrement; the head of the queue admits at
// delay 0). Returns the number of drivers launched.
func (q *Queue) RunWave(nw *congest.Network, l Launcher) (int, error) {
	if len(q.pending) == 0 {
		return 0, nil
	}
	cfg := q.cfg
	obs := nw.Obs()

	// Wave-start labels: components of the currently-marked forest.
	q.uf.reset(nw)
	for k := range q.claimed {
		delete(q.claimed, k)
	}
	for k := range q.blocked {
		delete(q.blocked, k)
	}
	wave := q.wave[:0]

	claim := func(nodes ...congest.NodeID) bool {
		for _, v := range nodes {
			if q.claimed[q.uf.find(int32(v))] {
				return false
			}
		}
		for _, v := range nodes {
			q.claimed[q.uf.find(int32(v))] = true
		}
		return true
	}

	next := q.pending[:0]
	truncated := false
	for _, it := range q.pending {
		if truncated || len(wave) >= cfg.Wave {
			// Over the cap: stop admitting; order among the rest is
			// untouched, so no edge blocking is needed either.
			truncated = true
			next = append(next, it)
			continue
		}
		k := edgeOf(it.ev)
		if it.delay > 0 {
			it.delay--
			q.blocked[k] = true
			next = append(next, it)
			continue
		}
		if q.blocked[k] {
			// A not-yet-admitted earlier event touches the same edge:
			// admitting now would reorder same-edge operations.
			it.retries++
			q.stats.Retries++
			it.delay = retryDelay(cfg, it)
			next = append(next, it)
			continue
		}
		dec := l.Admit(it.ev, cfg.Seed^uint64(it.idx+1)*opSeedPrime, claim)
		switch {
		case dec.Deferred:
			it.retries++
			q.stats.Retries++
			it.delay = retryDelay(cfg, it)
			q.blocked[k] = true
			next = append(next, it)
		case dec.Inline:
			q.stats.Inline++
			q.stats.Actions[dec.Action]++
			if dec.Action == Skipped {
				q.stats.Skipped++
			} else if obs != nil {
				// Zero-cost bracket, mirroring the sequential no-op
				// paths.
				obs.RepairStart(dec.Op, nw.Now())
				obs.RepairDone(dec.Op, dec.Action, nw.Now(), 0, 0, 0)
			}
		default:
			q.stats.Repairs++
			// Block the admitted event's edge for the rest of the scan:
			// a later same-wave event on this pair (even an
			// inline-eligible one, e.g. an unmarked delete of a
			// just-inserted edge) must not mutate the edge the driver
			// is about to repair.
			q.blocked[k] = true
			wave = append(wave, launchItem{idx: it.idx, op: dec.Op, driver: dec.Driver})
		}
	}
	q.pending = next
	q.wave = wave[:0] // retain capacity; entries are cleared below
	if len(wave) == 0 {
		// Every pending event is sitting out a backoff delay; the scan
		// above already decremented them, and the head of the queue
		// always admits at delay 0, so this terminates.
		return 0, nil
	}

	base := nw.Counters()
	baseTime := nw.Now()
	if obs != nil {
		for i := range wave {
			obs.RepairStart(wave[i].op, baseTime)
		}
	}
	waveNo := uint64(q.stats.Waves)
	q.stats.Waves++
	nw.Spawn("repair-wave", func(p *congest.Proc) error {
		for i := range wave {
			wave[i].task = p.GoStepTagged("repair", waveNo, uint64(wave[i].idx), wave[i].driver)
		}
		tasks := make([]*congest.Task, len(wave))
		for i := range wave {
			tasks[i] = wave[i].task
		}
		return p.WaitTasks(tasks...)
	})
	if err := nw.Run(); err != nil {
		return len(wave), err
	}
	// Run returning implies full quiescence: every repair's staged
	// marks (including far-half markx) are in flight no longer.
	nw.ApplyStaged()

	delta := nw.CountersSince(base)
	dt := nw.Now() - baseTime
	perMsgs := delta.Messages / uint64(len(wave))
	perBits := delta.Bits / uint64(len(wave))
	doneTime := nw.Now()
	for i := range wave {
		action := wave[i].driver.Action()
		q.stats.Actions[action]++
		if obs != nil {
			// Wave-amortized cost: the engine interleaves the wave's
			// repairs, so per-repair attribution is the even split.
			obs.RepairDone(wave[i].op, action, doneTime, dt, perMsgs, perBits)
		}
		l.Release(wave[i].driver)
		wave[i].driver = nil
		wave[i].task = nil
	}
	return len(wave), nil
}

// Drain runs waves until the pending backlog is empty.
func (q *Queue) Drain(nw *congest.Network, l Launcher) error {
	for len(q.pending) > 0 {
		if _, err := q.RunWave(nw, l); err != nil {
			return err
		}
	}
	return nil
}

// PendingEvent is one suspended backlog entry.
type PendingEvent struct {
	Idx     int             `json:"idx"`
	Event   faultplan.Event `json:"event"`
	Delay   int             `json:"delay"`
	Retries int             `json:"retries"`
}

// QueueState is a queue's serializable suspension record: the pending
// backlog with its backoff schedule, the next event index, and the
// cumulative accounting. Together with Config it reconstructs the queue
// exactly (see ResumeQueue) — a daemon checkpoint embeds one.
type QueueState struct {
	NextIdx int            `json:"next_idx"`
	Pending []PendingEvent `json:"pending,omitempty"`
	Stats   Stats          `json:"stats"`
}

// Suspend captures the queue's current state. The queue remains usable;
// the returned state deep-copies everything it shares with it.
func (q *Queue) Suspend() QueueState {
	st := QueueState{NextIdx: q.nextIdx, Stats: q.stats}
	st.Stats.Actions = make(map[string]int, len(q.stats.Actions))
	for k, v := range q.stats.Actions {
		st.Stats.Actions[k] = v
	}
	for _, it := range q.pending {
		st.Pending = append(st.Pending, PendingEvent{Idx: it.idx, Event: it.ev, Delay: it.delay, Retries: it.retries})
	}
	return st
}

// ResumeQueue reconstructs a suspended queue. The config must match the
// one the state was captured under (the backoff hash and op seeds depend
// on it); the caller owns that contract.
func ResumeQueue(cfg Config, st QueueState) *Queue {
	q := NewQueue(cfg)
	q.nextIdx = st.NextIdx
	if st.Stats.Actions != nil {
		q.stats = st.Stats
		q.stats.Actions = make(map[string]int, len(st.Stats.Actions))
		for k, v := range st.Stats.Actions {
			q.stats.Actions[k] = v
		}
	}
	for _, pe := range st.Pending {
		q.pending = append(q.pending, &item{idx: pe.Idx, ev: pe.Event, delay: pe.Delay, retries: pe.Retries})
	}
	return q
}

// Run drains the event list through the launcher in waves (see
// Queue.RunWave for the wave discipline). Returns the accounting and the
// first driver/engine error.
func Run(nw *congest.Network, events []faultplan.Event, l Launcher, cfg Config) (Stats, error) {
	q := NewQueue(cfg)
	q.Push(events...)
	err := q.Drain(nw, l)
	return q.stats, err
}

func retryDelay(cfg Config, it *item) int {
	if it.retries > cfg.MaxRetries {
		// Past the backoff budget: retry head-of-line every wave.
		return 0
	}
	return backoffDelay(cfg.Seed, it.idx, it.retries, cfg.MaxBackoff)
}

// unionFind labels the components of the marked forest at wave start. The
// scratch is reused across waves.
type unionFind struct {
	parent []int32
}

func newUnionFind() *unionFind { return &unionFind{} }

func (u *unionFind) reset(nw *congest.Network) {
	n := nw.N()
	if cap(u.parent) < n+1 {
		u.parent = make([]int32, n+1)
	}
	u.parent = u.parent[:n+1]
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	for v := 1; v <= n; v++ {
		ns := nw.Node(congest.NodeID(v))
		for i := range ns.Edges {
			he := &ns.Edges[i]
			if he.Marked && he.Neighbor > ns.ID {
				u.union(int32(v), int32(he.Neighbor))
			}
		}
	}
}

// find with path halving; deterministic.
func (u *unionFind) find(v int32) int32 {
	for u.parent[v] != v {
		u.parent[v] = u.parent[u.parent[v]]
		v = u.parent[v]
	}
	return v
}

// union attaches the larger root under the smaller: labels are canonical
// smallest-member IDs, independent of union order.
func (u *unionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if ra < rb {
		u.parent[rb] = ra
	} else {
		u.parent[ra] = rb
	}
}
