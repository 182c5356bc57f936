package obsv

import "kkt/internal/congest"

// Snapshot deltas: the incremental form a streaming subscriber receives.
// Diff(prev, cur) captures everything that changed between two snapshots
// of the same recorder; Apply(base, d) reconstructs cur from prev exactly
// (the delta round-trip contract, enforced by TestDeltaRoundTrip). A
// subscriber that misses deltas cannot resynchronize from the stream — the
// publisher must hand it a fresh full snapshot instead (see the serve
// layer's per-client resync-on-drop).
//
// Encoding choices, smallest-first:
//   - Monotone scalar aggregates (totals, session/repair stats, drop
//     counters) are carried whole when changed — they are a handful of
//     words.
//   - Round samples and trace events are appended when the previous
//     snapshot is a prefix of the current one; the sample ring's adaptive
//     thinning and stride doubling rewrite history, which a delta signals
//     with SamplesRebase (full replacement).
//   - Phase aggregates are upserted by index: the recorder only appends
//     phases and mutates each one exactly once (its PhaseEnd), so an
//     upsert list stays short.
//   - Kind totals and named counters are replaced whole when changed; they
//     are bounded by the kind table / distinct counter names, not by run
//     length.

// DeltaTotals is the scalar cost header of a delta.
type DeltaTotals struct {
	Now      int64  `json:"now"`
	Messages uint64 `json:"messages"`
	Bits     uint64 `json:"bits"`
}

// PhaseUpdate upserts one phase aggregate at its index.
type PhaseUpdate struct {
	Index int      `json:"index"`
	Phase PhaseAgg `json:"phase"`
}

// Delta is the set of changes between two snapshots of one recorder. Nil
// / absent fields mean "unchanged"; see the package comment for the
// append-vs-replace encoding of each field.
type Delta struct {
	Totals        *DeltaTotals      `json:"totals,omitempty"`
	ByKind        []KindTotal       `json:"by_kind,omitempty"`
	SampleStride  *uint64           `json:"sample_stride,omitempty"`
	Samples       []RoundSample     `json:"samples,omitempty"`
	SamplesRebase bool              `json:"samples_rebase,omitempty"`
	Phases        []PhaseUpdate     `json:"phases,omitempty"`
	PhasesDropped *uint64           `json:"phases_dropped,omitempty"`
	Sessions      *SessionStats     `json:"sessions,omitempty"`
	Repairs       *RepairStats      `json:"repairs,omitempty"`
	Counts        map[string]uint64 `json:"counts,omitempty"`
	Events        []Event           `json:"events,omitempty"`
	EventsDropped *uint64           `json:"events_dropped,omitempty"`
}

// Empty reports whether the delta carries no changes.
func (d Delta) Empty() bool {
	return d.Totals == nil && d.ByKind == nil &&
		d.SampleStride == nil && d.Samples == nil && !d.SamplesRebase &&
		d.Phases == nil && d.PhasesDropped == nil && d.Sessions == nil &&
		d.Repairs == nil && d.Counts == nil && d.Events == nil &&
		d.EventsDropped == nil
}

// Diff returns the changes from prev to cur. Both must be snapshots of
// the same recorder, taken in that order; Diff never mutates either.
func Diff(prev, cur Snapshot) Delta {
	var d Delta
	if prev.Now != cur.Now || prev.Messages != cur.Messages || prev.Bits != cur.Bits {
		d.Totals = &DeltaTotals{Now: cur.Now, Messages: cur.Messages, Bits: cur.Bits}
	}
	if !kindTotalsEqual(prev.ByKind, cur.ByKind) {
		d.ByKind = append([]KindTotal(nil), cur.ByKind...)
	}
	if prev.SampleStride != cur.SampleStride {
		s := cur.SampleStride
		d.SampleStride = &s
	}
	switch {
	case samplesPrefix(prev.RoundSamples, cur.RoundSamples):
		if n := len(cur.RoundSamples) - len(prev.RoundSamples); n > 0 {
			d.Samples = append([]RoundSample(nil), cur.RoundSamples[len(prev.RoundSamples):]...)
		}
	default:
		// The ring thinned (or otherwise rewrote history): replace whole.
		d.Samples = append([]RoundSample(nil), cur.RoundSamples...)
		d.SamplesRebase = true
	}
	for i := range cur.Phases {
		if i >= len(prev.Phases) || !phaseAggEqual(prev.Phases[i], cur.Phases[i]) {
			d.Phases = append(d.Phases, PhaseUpdate{Index: i, Phase: copyPhaseAgg(cur.Phases[i])})
		}
	}
	if prev.PhasesDropped != cur.PhasesDropped {
		v := cur.PhasesDropped
		d.PhasesDropped = &v
	}
	if prev.Sessions != cur.Sessions {
		s := cur.Sessions
		d.Sessions = &s
	}
	if !repairStatsEqual(prev.Repairs, cur.Repairs) {
		r := cur.Repairs
		r.ByAction = copyMap(cur.Repairs.ByAction)
		d.Repairs = &r
	}
	if !mapsEqual(prev.Counts, cur.Counts) {
		d.Counts = copyMap(cur.Counts)
	}
	if evs := newEvents(prev.Events, cur.Events); len(evs) > 0 {
		d.Events = append([]Event(nil), evs...)
	}
	if prev.EventsDropped != cur.EventsDropped {
		v := cur.EventsDropped
		d.EventsDropped = &v
	}
	return d
}

// Apply reconstructs the successor snapshot from base and a delta
// produced by Diff against that same base. The result shares no memory
// with either input.
func Apply(base Snapshot, d Delta) Snapshot {
	s := base
	// Deep-copy the slices/maps the shallow copy aliases.
	s.ByKind = append([]KindTotal(nil), base.ByKind...)
	s.RoundSamples = append([]RoundSample(nil), base.RoundSamples...)
	s.Phases = make([]PhaseAgg, len(base.Phases))
	for i := range base.Phases {
		s.Phases[i] = copyPhaseAgg(base.Phases[i])
	}
	s.Repairs.ByAction = copyMap(base.Repairs.ByAction)
	s.Counts = copyMap(base.Counts)
	s.Events = append([]Event(nil), base.Events...)

	if d.Totals != nil {
		s.Now, s.Messages, s.Bits = d.Totals.Now, d.Totals.Messages, d.Totals.Bits
	}
	if d.ByKind != nil {
		s.ByKind = append([]KindTotal(nil), d.ByKind...)
	}
	if d.SampleStride != nil {
		s.SampleStride = *d.SampleStride
	}
	if d.SamplesRebase {
		s.RoundSamples = append([]RoundSample(nil), d.Samples...)
	} else if len(d.Samples) > 0 {
		s.RoundSamples = append(s.RoundSamples, d.Samples...)
	}
	for _, pu := range d.Phases {
		for pu.Index >= len(s.Phases) {
			s.Phases = append(s.Phases, PhaseAgg{})
		}
		s.Phases[pu.Index] = copyPhaseAgg(pu.Phase)
	}
	if d.PhasesDropped != nil {
		s.PhasesDropped = *d.PhasesDropped
	}
	if d.Sessions != nil {
		s.Sessions = *d.Sessions
	}
	if d.Repairs != nil {
		s.Repairs = *d.Repairs
		s.Repairs.ByAction = copyMap(d.Repairs.ByAction)
	}
	if d.Counts != nil {
		s.Counts = copyMap(d.Counts)
	}
	if len(d.Events) > 0 {
		s.Events = append(s.Events, d.Events...)
		// Mirror the recorder's bounded ring: only the most recent
		// maxEvents survive.
		if n := len(s.Events); n > maxEvents {
			s.Events = append([]Event(nil), s.Events[n-maxEvents:]...)
		}
	}
	if d.EventsDropped != nil {
		s.EventsDropped = *d.EventsDropped
	}
	return s
}

// newEvents returns the suffix of cur whose Seq is newer than prev's
// newest (event sequence numbers are strictly increasing, so the ring's
// chronological order makes this a suffix).
func newEvents(prev, cur []Event) []Event {
	if len(cur) == 0 {
		return nil
	}
	var last uint64
	if len(prev) > 0 {
		last = prev[len(prev)-1].Seq
	}
	i := len(cur)
	for i > 0 && cur[i-1].Seq > last {
		i--
	}
	return cur[i:]
}

// samplesPrefix reports whether prev is a (possibly equal) prefix of cur.
func samplesPrefix(prev, cur []RoundSample) bool {
	if len(prev) > len(cur) {
		return false
	}
	for i := range prev {
		if prev[i] != cur[i] {
			return false
		}
	}
	return true
}

func copyPhaseAgg(pa PhaseAgg) PhaseAgg {
	pa.Classes = append([]congest.ClassCost(nil), pa.Classes...)
	return pa
}

func kindTotalsEqual(a, b []KindTotal) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func phaseAggEqual(a, b PhaseAgg) bool {
	if a.Proto != b.Proto || a.Phase != b.Phase || a.Fragments != b.Fragments ||
		a.StartNow != b.StartNow || a.EndNow != b.EndNow ||
		a.Messages != b.Messages || a.Bits != b.Bits || a.Rounds != b.Rounds ||
		a.Done != b.Done || len(a.Classes) != len(b.Classes) {
		return false
	}
	for i := range a.Classes {
		if a.Classes[i] != b.Classes[i] {
			return false
		}
	}
	return true
}

func repairStatsEqual(a, b RepairStats) bool {
	if a.Started != b.Started || a.Finished != b.Finished ||
		a.Messages != b.Messages || a.Bits != b.Bits ||
		a.RoundsSum != b.RoundsSum || a.RoundsMin != b.RoundsMin || a.RoundsMax != b.RoundsMax ||
		a.RoundsP50 != b.RoundsP50 || a.RoundsP90 != b.RoundsP90 || a.RoundsP99 != b.RoundsP99 {
		return false
	}
	return mapsEqual(a.ByAction, b.ByAction)
}

func mapsEqual(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}
