package main

import (
	"context"
	"runtime/pprof"
	"time"

	"kkt/internal/admit"
	"kkt/internal/congest"
	"kkt/internal/faultplan"
)

// span is one timed call into a layer during a traced trial. Times are
// seconds since the tracer started; Parent indexes the enclosing span
// (-1 for a top-level layer call).
type span struct {
	Name      string  `json:"name"`
	Parent    int     `json:"parent"`
	Start     float64 `json:"start_s"`
	End       float64 `json:"end_s"`
	Phase     int     `json:"phase,omitempty"`
	Fragments int     `json:"fragments,omitempty"`
	Repairs   int     `json:"repairs,omitempty"`
	Messages  uint64  `json:"messages,omitempty"`
}

// tracer records one traced trial: a span per layer call (each run under
// a pprof "layer" label), per-round and per-phase timestamps from its
// congest.Observer, and admission decisions from its launcher wrapper.
// Everything stays in memory until the run writes it out.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int // open top-level span, or -1
	obs   *observer

	launchNs  int64
	decisions map[string]int
	waveMs    []float64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), cur: -1, decisions: make(map[string]int)}
	t.obs = &observer{t: t, open: make(map[string]int), counts: make(map[string]uint64)}
	return t
}

func (t *tracer) sec(at time.Time) float64 { return at.Sub(t.t0).Seconds() }

// layer times one layer call and returns its wall seconds. On a nil
// tracer it only times the call.
func (t *tracer) layer(name string, f func()) float64 {
	start := time.Now()
	if t == nil {
		f()
		return time.Since(start).Seconds()
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: -1, Start: t.sec(start)})
	t.cur = id
	t.obs.last = start
	pprof.Do(context.Background(), pprof.Labels("layer", name), func(context.Context) { f() })
	end := time.Now()
	t.spans[id].End = t.sec(end)
	t.cur = -1
	return end.Sub(start).Seconds()
}

// wave records one admission wave that started at t0 and launched n
// repairs. Scans that launched nothing are tallied, not timed.
func (t *tracer) wave(t0 time.Time, n int) {
	if t == nil {
		return
	}
	if n == 0 {
		t.decisions["empty-scan"]++
		return
	}
	end := time.Now()
	t.spans = append(t.spans, span{Name: "admit.wave", Parent: t.cur, Start: t.sec(t0), End: t.sec(end), Repairs: n})
	t.waveMs = append(t.waveMs, float64(end.Sub(t0).Nanoseconds())/1e6)
}

// timedLauncher passes every call through to the wrapped launcher,
// timing and tallying Admit decisions.
type timedLauncher struct {
	inner admit.Launcher
	t     *tracer
}

func (l *timedLauncher) Admit(ev faultplan.Event, opSeed uint64, claim admit.Claim) admit.Decision {
	start := time.Now()
	d := l.inner.Admit(ev, opSeed, claim)
	l.t.launchNs += time.Since(start).Nanoseconds()
	switch {
	case d.Deferred:
		l.t.decisions["deferred"]++
	case d.Inline:
		l.t.decisions["inline"]++
	default:
		l.t.decisions["launched"]++
	}
	return d
}

func (l *timedLauncher) Release(r admit.Repair) { l.inner.Release(r) }

// observer is the tracer's congest.Observer: it timestamps delivery
// rounds and protocol phases and keeps the named lifecycle counters.
type observer struct {
	t       *tracer
	last    time.Time
	roundNs []int64
	open    map[string]int // proto -> index of its open phase span
	counts  map[string]uint64
}

var _ congest.Observer = (*observer)(nil)

func (o *observer) RoundEnd(int64, uint64, uint64, []congest.KindCount, []uint64) {
	now := time.Now()
	o.roundNs = append(o.roundNs, now.Sub(o.last).Nanoseconds())
	o.last = now
}

func (o *observer) SessionOpen(uint64, int64)       {}
func (o *observer) SessionDone(uint64, int64, bool) {}

func (o *observer) PhaseStart(proto string, phase, fragments int, _ int64) {
	o.open[proto] = len(o.t.spans)
	o.t.spans = append(o.t.spans, span{Name: proto + ".phase", Parent: o.t.cur,
		Start: o.t.sec(time.Now()), Phase: phase, Fragments: fragments})
}

func (o *observer) PhaseEnd(proto string, _ int, _ int64, cost congest.PhaseCosts) {
	if id, ok := o.open[proto]; ok {
		o.t.spans[id].End = o.t.sec(time.Now())
		o.t.spans[id].Messages = cost.Messages
		delete(o.open, proto)
	}
}

// RepairStart is called for each repair of a wave just before the wave's
// engine run, so it restarts the round clock: the first round of a wave
// is not charged with the admission scan before it.
func (o *observer) RepairStart(string, int64) { o.last = time.Now() }

func (o *observer) RepairDone(string, string, int64, int64, uint64, uint64) {}

func (o *observer) Count(name string, delta uint64) { o.counts[name] += delta }
