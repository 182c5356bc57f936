package obsv

import (
	"sort"
	"sync"

	"kkt/internal/congest"
)

// Bounds; see doc.go for how each keeps recorder memory independent of run
// length.
const (
	maxRoundSamples = 1024
	maxEvents       = 512
	maxPhaseAggs    = 4096
	maxLatSamples   = 256
)

// RoundSample is one sampled point of the cumulative cost timeline.
type RoundSample struct {
	Now      int64  `json:"now"`
	Messages uint64 `json:"messages"`
	Bits     uint64 `json:"bits"`
}

// Event is one trace event from the bounded event ring.
type Event struct {
	Seq    uint64 `json:"seq"`
	Type   string `json:"type"` // phase-start | phase-end | repair-start | repair-done
	Proto  string `json:"proto,omitempty"`
	Phase  int    `json:"phase,omitempty"`
	Op     string `json:"op,omitempty"`
	Action string `json:"action,omitempty"`
	Now    int64  `json:"now"`
}

// PhaseAgg is the monotone aggregate of one protocol phase: started once,
// finished once, never mutated afterwards.
type PhaseAgg struct {
	Proto     string              `json:"proto"`
	Phase     int                 `json:"phase"`
	Fragments int                 `json:"fragments"`
	StartNow  int64               `json:"start_now"`
	EndNow    int64               `json:"end_now"`
	Messages  uint64              `json:"messages"`
	Bits      uint64              `json:"bits"`
	Rounds    int64               `json:"rounds"`
	Classes   []congest.ClassCost `json:"classes,omitempty"`
	Done      bool                `json:"done"`
}

// SessionStats aggregates session lifecycle events.
type SessionStats struct {
	Opened    uint64 `json:"opened"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
}

// RepairStats aggregates repair operations: counts, cost, round-latency
// extremes, and nearest-rank percentiles over a bounded ring of the most
// recent repair latencies (a live storm view, not an exact all-time
// distribution).
type RepairStats struct {
	Started   uint64            `json:"started"`
	Finished  uint64            `json:"finished"`
	Messages  uint64            `json:"messages"`
	Bits      uint64            `json:"bits"`
	RoundsSum int64             `json:"rounds_sum"`
	RoundsMin int64             `json:"rounds_min"`
	RoundsMax int64             `json:"rounds_max"`
	RoundsP50 int64             `json:"rounds_p50,omitempty"`
	RoundsP90 int64             `json:"rounds_p90,omitempty"`
	RoundsP99 int64             `json:"rounds_p99,omitempty"`
	ByAction  map[string]uint64 `json:"by_action,omitempty"`
}

// KindTotal is the cumulative cost of one message kind, resolved to its
// interned name.
type KindTotal struct {
	Kind     string `json:"kind"`
	Messages uint64 `json:"messages"`
	Bits     uint64 `json:"bits"`
}

// Snapshot is a consistent deep copy of a recorder's state.
type Snapshot struct {
	Label         string            `json:"label"`
	Now           int64             `json:"now"`
	Messages      uint64            `json:"messages"`
	Bits          uint64            `json:"bits"`
	ByKind        []KindTotal       `json:"by_kind,omitempty"`
	SampleStride  uint64            `json:"sample_stride"`
	RoundSamples  []RoundSample     `json:"round_samples,omitempty"`
	Phases        []PhaseAgg        `json:"phases,omitempty"`
	PhasesDropped uint64            `json:"phases_dropped,omitempty"`
	Sessions      SessionStats      `json:"sessions"`
	Repairs       RepairStats       `json:"repairs"`
	Counts        map[string]uint64 `json:"counts,omitempty"`
	Events        []Event           `json:"events,omitempty"`
	EventsDropped uint64            `json:"events_dropped,omitempty"`
}

// Recorder implements congest.Observer; see doc.go for its invariants.
type Recorder struct {
	mu    sync.Mutex
	label string

	now      int64
	messages uint64
	bits     uint64
	byKind   []congest.KindCount

	roundCalls uint64
	stride     uint64
	samples    []RoundSample

	phases        []PhaseAgg
	phasesDropped uint64

	events        []Event
	eventHead     int
	eventSeq      uint64
	eventsDropped uint64

	sessions SessionStats
	repairs  RepairStats
	lats     []int64 // ring of recent repair round-latencies
	latHead  int
	counts   map[string]uint64
}

var _ congest.Observer = (*Recorder)(nil)

// NewRecorder returns a recorder labelled for snapshot consumers (e.g.
// "scenario#trial").
func NewRecorder(label string) *Recorder {
	return &Recorder{label: label, stride: 1}
}

// RoundEnd implements congest.Observer.
func (r *Recorder) RoundEnd(now int64, messages, bits uint64, byKind []congest.KindCount, shardLoad []uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.now, r.messages, r.bits = now, messages, bits
	r.byKind = append(r.byKind[:0], byKind...)
	if r.roundCalls%r.stride == 0 {
		if len(r.samples) >= maxRoundSamples {
			// Thin to every other sample and double the stride: coverage of
			// the whole run is preserved at half the resolution.
			n := 0
			for i := 0; i < len(r.samples); i += 2 {
				r.samples[n] = r.samples[i]
				n++
			}
			r.samples = r.samples[:n]
			r.stride *= 2
		}
		r.samples = append(r.samples, RoundSample{Now: now, Messages: messages, Bits: bits})
	}
	r.roundCalls++
}

// SessionOpen implements congest.Observer.
func (r *Recorder) SessionOpen(serial uint64, now int64) {
	r.mu.Lock()
	r.sessions.Opened++
	r.mu.Unlock()
}

// SessionDone implements congest.Observer.
func (r *Recorder) SessionDone(serial uint64, now int64, failed bool) {
	r.mu.Lock()
	r.sessions.Completed++
	if failed {
		r.sessions.Failed++
	}
	r.mu.Unlock()
}

// PhaseStart implements congest.Observer.
func (r *Recorder) PhaseStart(proto string, phase, fragments int, now int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.phases) >= maxPhaseAggs {
		r.phasesDropped++
	} else {
		r.phases = append(r.phases, PhaseAgg{Proto: proto, Phase: phase, Fragments: fragments, StartNow: now})
	}
	r.event(Event{Type: "phase-start", Proto: proto, Phase: phase, Now: now})
}

// PhaseEnd implements congest.Observer.
func (r *Recorder) PhaseEnd(proto string, phase int, now int64, cost congest.PhaseCosts) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.phases) - 1; i >= 0; i-- {
		pa := &r.phases[i]
		if pa.Proto == proto && pa.Phase == phase && !pa.Done {
			pa.EndNow = now
			pa.Messages, pa.Bits, pa.Rounds = cost.Messages, cost.Bits, cost.Rounds
			pa.Classes = append([]congest.ClassCost(nil), cost.Classes...)
			pa.Done = true
			break
		}
	}
	r.event(Event{Type: "phase-end", Proto: proto, Phase: phase, Now: now})
}

// RepairStart implements congest.Observer.
func (r *Recorder) RepairStart(op string, now int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.repairs.Started++
	r.event(Event{Type: "repair-start", Op: op, Now: now})
}

// RepairDone implements congest.Observer.
func (r *Recorder) RepairDone(op, action string, now int64, rounds int64, messages, bits uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rp := &r.repairs
	rp.Finished++
	rp.Messages += messages
	rp.Bits += bits
	rp.RoundsSum += rounds
	if rp.Finished == 1 || rounds < rp.RoundsMin {
		rp.RoundsMin = rounds
	}
	if rounds > rp.RoundsMax {
		rp.RoundsMax = rounds
	}
	if rp.ByAction == nil {
		rp.ByAction = make(map[string]uint64)
	}
	rp.ByAction[op+"/"+action]++
	if len(r.lats) < maxLatSamples {
		r.lats = append(r.lats, rounds)
	} else {
		r.lats[r.latHead] = rounds
		r.latHead = (r.latHead + 1) % maxLatSamples
	}
	r.event(Event{Type: "repair-done", Op: op, Action: action, Now: now})
}

// Count implements congest.Observer.
func (r *Recorder) Count(name string, delta uint64) {
	r.mu.Lock()
	if r.counts == nil {
		r.counts = make(map[string]uint64)
	}
	r.counts[name] += delta
	r.mu.Unlock()
}

// event appends to the bounded ring; callers hold r.mu.
func (r *Recorder) event(e Event) {
	r.eventSeq++
	e.Seq = r.eventSeq
	if len(r.events) < maxEvents {
		r.events = append(r.events, e)
		return
	}
	r.events[r.eventHead] = e
	r.eventHead = (r.eventHead + 1) % maxEvents
	r.eventsDropped++
}

// Snapshot returns a consistent deep copy of the recorder's state, safe to
// serialize while the engine keeps appending.
func (r *Recorder) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Label:         r.label,
		Now:           r.now,
		Messages:      r.messages,
		Bits:          r.bits,
		SampleStride:  r.stride,
		Sessions:      r.sessions,
		Repairs:       r.repairs,
		PhasesDropped: r.phasesDropped,
		EventsDropped: r.eventsDropped,
	}
	s.Repairs.ByAction = copyMap(r.repairs.ByAction)
	if len(r.lats) > 0 {
		sorted := append([]int64(nil), r.lats...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		s.Repairs.RoundsP50 = nearestRank(sorted, 50)
		s.Repairs.RoundsP90 = nearestRank(sorted, 90)
		s.Repairs.RoundsP99 = nearestRank(sorted, 99)
	}
	s.Counts = copyMap(r.counts)
	for id, kc := range r.byKind {
		if kc.Messages != 0 || kc.Bits != 0 {
			s.ByKind = append(s.ByKind, KindTotal{Kind: congest.KindID(id).String(), Messages: kc.Messages, Bits: kc.Bits})
		}
	}
	sort.Slice(s.ByKind, func(i, j int) bool { return s.ByKind[i].Kind < s.ByKind[j].Kind })
	s.RoundSamples = append([]RoundSample(nil), r.samples...)
	s.Phases = make([]PhaseAgg, len(r.phases))
	for i, pa := range r.phases {
		pa.Classes = append([]congest.ClassCost(nil), pa.Classes...)
		s.Phases[i] = pa
	}
	if len(r.events) > 0 {
		s.Events = make([]Event, 0, len(r.events))
		s.Events = append(s.Events, r.events[r.eventHead:]...)
		s.Events = append(s.Events, r.events[:r.eventHead]...)
	}
	return s
}

// nearestRank is the nearest-rank percentile of a sorted sample.
func nearestRank(sorted []int64, pct int) int64 {
	idx := (pct*len(sorted) + 99) / 100 // ceil(pct/100 * n)
	if idx < 1 {
		idx = 1
	}
	return sorted[idx-1]
}

func copyMap(m map[string]uint64) map[string]uint64 {
	if m == nil {
		return nil
	}
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
