package serve

import (
	"context"
	"fmt"
	"reflect"

	"kkt/internal/admit"
	"kkt/internal/congest"
	"kkt/internal/faultplan"
	"kkt/internal/mst"
	"kkt/internal/obsv"
	"kkt/internal/spanning"
	"kkt/internal/st"
	"kkt/internal/tree"
)

// Config is the daemon's full configuration. Every field that determines
// the event sequence is folded into the checkpoint fingerprint; the rest
// (callbacks, checkpoint cadence) are execution knobs the determinism
// contracts make invisible to the run's outcome.
type Config struct {
	Spec GraphSpec
	Algo string // "mst" (weighted, default) | "st" (unweighted)
	Seed uint64

	// Wave caps concurrent repair drivers per admission wave (admit's
	// default applies at 0).
	Wave int

	// EpochEvents bounds how many events one epoch ingests (default 64).
	// Smaller epochs mean finer-grained checkpoints and fresher WS deltas;
	// larger epochs amortize engine rebuilds.
	EpochEvents int
	// Events is the total to process. Required with a churn generator;
	// defaults to the full trace length when replaying.
	Events int

	// Churn is the per-epoch generator plan, recompiled against the live
	// topology each epoch (pure function of state + seed + epoch — the
	// resume-determinism keystone). Ignored when Trace is set.
	Churn faultplan.Plan
	// Trace replays a fixed event list instead of generating churn.
	Trace []faultplan.Event
	// TraceDigest pins the trace's initial-graph digest into the
	// checkpoint fingerprint when replaying.
	TraceDigest string

	// CheckpointPath enables checkpointing ("" disables); CheckpointEvery
	// is the epoch cadence (default 1).
	CheckpointPath  string
	CheckpointEvery int

	// Observer receives the engine's observer hooks across all epochs on
	// one continuous timeline (per-epoch engine clocks and counters are
	// offset by the preceding epochs' totals). Typically an
	// *obsv.Recorder. Nil disables observation at zero cost.
	Observer congest.Observer

	// OnWave fires after every admission wave; OnEpoch after every epoch
	// (durable-state boundary). Both run on the daemon goroutine between
	// engine runs — keep them short; a WS hub publish is the intended use.
	OnWave  func(WaveInfo)
	OnEpoch func(EpochInfo)
}

// WaveInfo is the per-wave progress report.
type WaveInfo struct {
	Epoch    int         `json:"epoch"`
	Launched int         `json:"launched"`
	Pending  int         `json:"pending"` // queue depth after the wave
	Stats    admit.Stats `json:"stats"`   // cumulative
}

// EpochInfo is the per-epoch progress report.
type EpochInfo struct {
	Epoch        int    `json:"epoch"` // epochs completed
	EventsDone   int    `json:"events_done"`
	EventsTotal  int    `json:"events_total"`
	Digest       string `json:"digest"`
	Checkpointed bool   `json:"checkpointed"`
}

// Summary is the daemon's final report.
type Summary struct {
	Epochs     int         `json:"epochs"`
	EventsDone int         `json:"events_done"`
	Stats      admit.Stats `json:"stats"`
	Digest     string      `json:"digest"`
}

func (c Config) withDefaults() Config {
	c.Spec = c.Spec.WithDefaults()
	if c.Algo == "" {
		c.Algo = "mst"
	}
	if c.EpochEvents == 0 {
		c.EpochEvents = 64
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 1
	}
	if c.Trace != nil && c.Events == 0 {
		c.Events = len(c.Trace)
	}
	return c
}

func (c Config) validate() error {
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if c.Algo != "mst" && c.Algo != "st" {
		return fmt.Errorf("serve: unknown algo %q (want mst or st)", c.Algo)
	}
	if c.Trace == nil && c.Churn.Empty() {
		return fmt.Errorf("serve: no update stream: need a trace or a churn plan")
	}
	if c.Trace == nil {
		if err := c.Churn.Validate(); err != nil {
			return err
		}
	}
	if c.Events <= 0 {
		return fmt.Errorf("serve: events=%d, want > 0", c.Events)
	}
	if c.Trace != nil && c.Events > len(c.Trace) {
		return fmt.Errorf("serve: events=%d exceeds trace length %d", c.Events, len(c.Trace))
	}
	return nil
}

// fingerprint pins the sequence-determining configuration.
func (c Config) fingerprint() Fingerprint {
	return Fingerprint{
		Spec: c.Spec, Algo: c.Algo, Seed: c.Seed, Wave: c.Wave,
		EpochEvents: c.EpochEvents, Churn: c.Churn, TraceDigest: c.TraceDigest,
	}
}

// Daemon is the live topology-maintenance service; construct with New or
// Resume, then Run. Not safe for concurrent use — Run owns it.
type Daemon struct {
	cfg        Config
	state      State
	epoch      int
	eventsDone int
	queue      admit.QueueState
	shift      *shiftObs
}

// New creates a fresh daemon: builds the seeded initial graph, marks its
// reference forest (MSF for mst, BFS forest for st — uncharged setup,
// like the paper's maintained-forest precondition), and positions the
// update stream at event zero.
func New(cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := cfg.Spec.Build()
	if cfg.Trace != nil && cfg.TraceDigest != "" {
		if got := GraphDigest(g); got != cfg.TraceDigest {
			return nil, fmt.Errorf("serve: trace was recorded against a different initial graph: built %s, trace %s", got, cfg.TraceDigest)
		}
	}
	var forest []int
	if cfg.Algo == "mst" {
		forest = spanning.Kruskal(g)
	} else {
		forest = spanning.BFSForest(g)
	}
	return &Daemon{
		cfg:   cfg,
		state: StateOf(g, forest),
		shift: newShiftObs(cfg.Observer),
	}, nil
}

// Resume reconstructs a daemon from a checkpoint. The configuration's
// fingerprint must match the checkpoint's exactly.
func Resume(cfg Config, cp Checkpoint) (*Daemon, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if fp := cfg.fingerprint(); !reflect.DeepEqual(fp, cp.Fingerprint) {
		return nil, fmt.Errorf("serve: checkpoint fingerprint mismatch:\n  config     %+v\n  checkpoint %+v", fp, cp.Fingerprint)
	}
	d := &Daemon{
		cfg:        cfg,
		state:      cp.State,
		epoch:      cp.Epoch,
		eventsDone: cp.EventsDone,
		queue:      cp.Queue,
		shift:      newShiftObs(cfg.Observer),
	}
	d.shift.load(cp.Obs)
	return d, nil
}

// Digest returns the current topology-state digest.
func (d *Daemon) Digest() string { return d.state.Digest() }

// State returns the daemon's durable state (epoch-boundary topology).
func (d *Daemon) State() State { return d.state }

// Run processes the update stream to completion (or ctx cancellation),
// epoch by epoch. Each epoch: rebuild a fresh engine from durable state
// with seed mix(seed, epoch), generate or slice that epoch's events,
// drain them through the admission queue in waves, capture the resulting
// state, and checkpoint on cadence. Returns the final summary; on error
// or cancellation the last completed epoch's checkpoint (if any) remains
// the resume point.
func (d *Daemon) Run(ctx context.Context) (Summary, error) {
	cfg := d.cfg
	for d.eventsDone < cfg.Events {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return d.summary(), err
			}
		}
		epochSeed := mixSeed(cfg.Seed, d.epoch)
		g := d.state.Graph()

		var events []faultplan.Event
		if cfg.Trace != nil {
			events = cfg.Trace[d.eventsDone:min(d.eventsDone+cfg.EpochEvents, cfg.Events)]
		} else {
			compiled := faultplan.Compile(cfg.Churn, g, d.state.MarkedIndices(g), epochSeed)
			if len(compiled) == 0 {
				return d.summary(), fmt.Errorf("serve: churn plan compiled to zero events at epoch %d", d.epoch)
			}
			events = compiled[:min(cfg.EpochEvents, cfg.Events-d.eventsDone, len(compiled))]
		}

		opts := []congest.Option{congest.WithSeed(epochSeed)}
		if d.shift.inner != nil {
			opts = append(opts, congest.WithObserver(d.shift))
		}
		if ctx != nil {
			opts = append(opts, congest.WithContext(ctx))
		}
		nw := congest.NewNetwork(g, opts...)
		pr := tree.Attach(nw)
		nw.SetForest(d.state.MarkedPairs())

		var l admit.Launcher
		if cfg.Algo == "mst" {
			l = mst.NewStormLauncher(nw, pr, mst.DefaultRepair(cfg.Seed))
		} else {
			l = st.NewStormLauncher(nw, pr, st.DefaultRepair(cfg.Seed))
		}

		// The queue's suspension record carries the global event index (op
		// seeds depend on it) and cumulative stats across epochs.
		q := admit.ResumeQueue(admit.Config{Wave: cfg.Wave, Seed: cfg.Seed}, d.queue)
		q.Push(events...)
		for q.Pending() > 0 {
			launched, err := q.RunWave(nw, l)
			if err != nil {
				return d.summary(), err
			}
			if cfg.OnWave != nil {
				cfg.OnWave(WaveInfo{Epoch: d.epoch, Launched: launched, Pending: q.Pending(), Stats: q.Stats()})
			}
		}

		d.queue = q.Suspend()
		d.state = CaptureState(nw)
		d.shift.advance(nw)
		d.epoch++
		d.eventsDone += len(events)

		checkpointed := false
		if cfg.CheckpointPath != "" && (d.epoch%cfg.CheckpointEvery == 0 || d.eventsDone >= cfg.Events) {
			if err := WriteCheckpoint(cfg.CheckpointPath, d.checkpoint()); err != nil {
				return d.summary(), fmt.Errorf("serve: checkpoint: %w", err)
			}
			checkpointed = true
		}
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(EpochInfo{
				Epoch: d.epoch, EventsDone: d.eventsDone, EventsTotal: cfg.Events,
				Digest: d.state.Digest(), Checkpointed: checkpointed,
			})
		}
	}
	return d.summary(), nil
}

func (d *Daemon) checkpoint() Checkpoint {
	return Checkpoint{
		Fingerprint: d.cfg.fingerprint(),
		Epoch:       d.epoch,
		EventsDone:  d.eventsDone,
		State:       d.state,
		Queue:       d.queue,
		Obs:         d.shift.save(),
	}
}

func (d *Daemon) summary() Summary {
	return Summary{
		Epochs:     d.epoch,
		EventsDone: d.eventsDone,
		Stats:      d.queue.Stats,
		Digest:     d.state.Digest(),
	}
}

// mixSeed derives one epoch's engine seed (splitmix64 finalizer over the
// daemon seed and epoch index, never zero).
func mixSeed(seed uint64, epoch int) uint64 {
	z := seed ^ (uint64(epoch)+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// shiftObs re-bases a per-epoch engine's observer stream onto the
// daemon's continuous timeline: each fresh engine starts its clock and
// counters at zero, so the wrapper adds the totals of all completed
// epochs before forwarding to the inner observer. Kind IDs are
// process-interned and shared across engines, so the per-kind base is
// indexable by KindID directly; checkpoints persist it by name (save /
// load) since IDs do not survive restarts.
type shiftObs struct {
	inner   congest.Observer
	dNow    int64
	dMsgs   uint64
	dBits   uint64
	base    []congest.KindCount // indexed by KindID
	scratch []congest.KindCount
}

func newShiftObs(inner congest.Observer) *shiftObs { return &shiftObs{inner: inner} }

func (o *shiftObs) RoundEnd(now int64, messages, bits uint64, byKind []congest.KindCount, shardLoad []uint64) {
	n := max(len(byKind), len(o.base))
	if cap(o.scratch) < n {
		o.scratch = make([]congest.KindCount, n)
	}
	s := o.scratch[:n]
	for i := range s {
		var kc congest.KindCount
		if i < len(o.base) {
			kc = o.base[i]
		}
		if i < len(byKind) {
			kc.Messages += byKind[i].Messages
			kc.Bits += byKind[i].Bits
		}
		s[i] = kc
	}
	o.inner.RoundEnd(now+o.dNow, messages+o.dMsgs, bits+o.dBits, s, shardLoad)
}

func (o *shiftObs) SessionOpen(serial uint64, now int64) { o.inner.SessionOpen(serial, now+o.dNow) }
func (o *shiftObs) SessionDone(serial uint64, now int64, failed bool) {
	o.inner.SessionDone(serial, now+o.dNow, failed)
}
func (o *shiftObs) PhaseStart(proto string, phase, fragments int, now int64) {
	o.inner.PhaseStart(proto, phase, fragments, now+o.dNow)
}
func (o *shiftObs) PhaseEnd(proto string, phase int, now int64, cost congest.PhaseCosts) {
	o.inner.PhaseEnd(proto, phase, now+o.dNow, cost)
}
func (o *shiftObs) RepairStart(op string, now int64) { o.inner.RepairStart(op, now+o.dNow) }
func (o *shiftObs) RepairDone(op, action string, now int64, rounds int64, messages, bits uint64) {
	o.inner.RepairDone(op, action, now+o.dNow, rounds, messages, bits)
}
func (o *shiftObs) Count(name string, delta uint64) { o.inner.Count(name, delta) }

// advance folds a finished epoch's engine totals into the offsets.
func (o *shiftObs) advance(nw *congest.Network) {
	o.dNow += nw.Now()
	c := nw.Counters()
	o.dMsgs += c.Messages
	o.dBits += c.Bits
	for name, kc := range c.ByKind {
		id := int(congest.Kind(name))
		for id >= len(o.base) {
			o.base = append(o.base, congest.KindCount{})
		}
		o.base[id].Messages += kc.Messages
		o.base[id].Bits += kc.Bits
	}
}

// save/load serialize the offsets for checkpoints, keyed by kind name.
func (o *shiftObs) save() ObsShift {
	sh := ObsShift{Now: o.dNow, Messages: o.dMsgs, Bits: o.dBits}
	for id, kc := range o.base {
		if kc.Messages != 0 || kc.Bits != 0 {
			sh.ByKind = append(sh.ByKind, obsv.KindTotal{
				Kind: congest.KindID(id).String(), Messages: kc.Messages, Bits: kc.Bits,
			})
		}
	}
	return sh
}

func (o *shiftObs) load(sh ObsShift) {
	o.dNow, o.dMsgs, o.dBits = sh.Now, sh.Messages, sh.Bits
	for _, kt := range sh.ByKind {
		id := int(congest.Kind(kt.Kind))
		for id >= len(o.base) {
			o.base = append(o.base, congest.KindCount{})
		}
		o.base[id] = congest.KindCount{Messages: kt.Messages, Bits: kt.Bits}
	}
}
