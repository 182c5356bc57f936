package congest

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"kkt/internal/graph"
	"kkt/internal/race"
)

// stepEcho is a minimal two-state continuation driver: send one unboxed
// message, await the session it completes, record the echoed word.
type stepEcho struct {
	nw       *Network
	from, to NodeID
	kind     KindID
	out      *uint64
	started  bool
}

func (d *stepEcho) Step(t *Task, w Wake) (SessionID, bool, error) {
	if !d.started {
		d.started = true
		sid := d.nw.NewSession(nil)
		d.nw.SendU(d.from, d.to, d.kind, sid, 8, uint64(d.from))
		return sid, false, nil
	}
	u, err := w.U()
	if err != nil {
		return 0, true, err
	}
	*d.out = u
	return 0, true, nil
}

// echoNet returns a path network with a kind whose handler echoes the
// message word back through the session, unboxed.
func echoNet(t *testing.T, n int) (*Network, KindID) {
	t.Helper()
	nw := buildNet(t, n)
	kind := Kind("cont.echo")
	if !nw.HasHandler(kind) {
		nw.RegisterHandler(kind, func(nw *Network, node *NodeState, msg *Message) {
			nw.CompleteSessionU(msg.Session, msg.U+100, nil)
		})
	}
	return nw, kind
}

func TestTaskDriverBasic(t *testing.T) {
	nw, kind := echoNet(t, 2)
	var got uint64
	nw.SpawnStep("echo", &stepEcho{nw: nw, from: 1, to: 2, kind: kind, out: &got})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 101 {
		t.Errorf("echoed word = %d, want 101", got)
	}
}

func TestTaskFanoutWaitTasks(t *testing.T) {
	nw, kind := echoNet(t, 4)
	got := make([]uint64, 3)
	nw.Spawn("parent", func(p *Proc) error {
		var tasks []*Task
		for i := 0; i < 3; i++ {
			d := &stepEcho{nw: nw, from: NodeID(i + 1), to: NodeID(i + 2), kind: kind, out: &got[i]}
			tasks = append(tasks, p.GoStepTagged("echo", 1, uint64(i), d))
		}
		return p.WaitTasks(tasks...)
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if want := uint64(i + 101); g != want {
			t.Errorf("task %d echoed %d, want %d", i, g, want)
		}
	}
}

// stepAwaitCompleted awaits a session that is already complete when Step
// returns it: the engine must consume it inline and keep stepping.
type stepAwaitCompleted struct {
	nw    *Network
	out   *uint64
	state int
}

func (d *stepAwaitCompleted) Step(t *Task, w Wake) (SessionID, bool, error) {
	switch d.state {
	case 0:
		d.state = 1
		sid := d.nw.NewSession(nil)
		d.nw.CompleteSessionU(sid, 7, nil) // complete before awaiting
		return sid, false, nil
	case 1:
		u, err := w.U()
		if err != nil {
			return 0, true, err
		}
		*d.out = u
		return 0, true, nil
	}
	return 0, true, fmt.Errorf("unexpected state %d", d.state)
}

func TestTaskAwaitsCompletedSessionInline(t *testing.T) {
	nw := buildNet(t, 2)
	var got uint64
	nw.SpawnStep("inline", &stepAwaitCompleted{nw: nw, out: &got})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("inline-consumed result = %d, want 7", got)
	}
}

// stepNop finishes on its first step; the task-pool gates spawn it.
type stepNop struct{}

func (stepNop) Step(*Task, Wake) (SessionID, bool, error) { return 0, true, nil }

var nopDriver stepNop

// nopFanout is a Fanout of nopDrivers; initNop arms nothing. Both are
// package-level so the allocation gate measures the engine and the
// helper, not closures at the call site.
func nopFanout() *Fanout[stepNop, int] {
	return &Fanout[stepNop, int]{New: func() stepNop { return nopDriver }}
}

func initNop(stepNop, NodeID, *int) {}

// leaderIDs returns the leader list 1..n.
func leaderIDs(n int) []NodeID {
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(i + 1)
	}
	return ids
}

// TestTaskPoolReuseWithinRun: a second fan-out phase inside one Run must
// reuse the first phase's Task objects entirely.
func TestTaskPoolReuseWithinRun(t *testing.T) {
	g := graph.Path(2, 1, graph.UnitWeights())
	nw := NewNetwork(g)
	created := func() int { return len(nw.allTasks) }
	leaders := leaderIDs(32)
	nw.Spawn("outer", func(p *Proc) error {
		fan := nopFanout()
		base := 0
		for phase := 0; phase < 3; phase++ {
			if _, err := fan.Run(p, "child", phase, leaders, initNop); err != nil {
				return err
			}
			if phase == 0 {
				base = created()
			} else if got := created(); got != base {
				return fmt.Errorf("phase %d created %d new tasks, want 0", phase, got-base)
			}
		}
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if len(nw.allTasks) != 0 || len(nw.taskFree) != 0 {
		t.Fatalf("task pool not drained at Run end: %d tasks, %d free", len(nw.allTasks), len(nw.taskFree))
	}
}

// TestTaskSpawnAllocs pins the continuation spawn path: after a warm-up
// wave, a 2-phase fan-out of 64 tasks per phase costs only the first
// phase's Task objects per Run (the pool drains at Run end) — far below
// goroutine+channel costs, and the second phase must be free.
func TestTaskSpawnAllocs(t *testing.T) {
	race.SkipAllocTest(t)
	g := graph.Path(2, 1, graph.UnitWeights())
	nw := NewNetwork(g)
	fan := nopFanout()
	leaders := leaderIDs(64)
	wave := func() {
		nw.Spawn("outer", func(p *Proc) error {
			for phase := 0; phase < 2; phase++ {
				if _, err := fan.Run(p, "child", phase, leaders, initNop); err != nil {
					return err
				}
			}
			return nil
		})
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
	}
	wave()
	avg := testing.AllocsPerRun(5, wave)
	// Budget: 64 fresh Tasks in phase 1 (one small struct each, no
	// goroutines, no channels), phase 2 free, plus constant slack.
	allocBudget(t, "continuation fan-out (2 phases x 64 tasks)", avg, 64+32)
}

// stepLeader records its leader into its outcome slot.
type stepLeader struct {
	leader NodeID
	out    *int
}

func (d *stepLeader) Step(*Task, Wake) (SessionID, bool, error) {
	*d.out = int(d.leader)
	return 0, true, nil
}

// TestFanoutShrinkingPhases: across a shrinking fan-out the helper reuses
// its pooled drivers, hands each phase zeroed outcome slots indexed like
// its leaders, and clears the stale task tail of the larger earlier phase
// so finished tasks are not pinned.
func TestFanoutShrinkingPhases(t *testing.T) {
	nw := buildNet(t, 2)
	made := 0
	fan := &Fanout[*stepLeader, int]{New: func() *stepLeader { made++; return &stepLeader{} }}
	var got [][]int
	nw.Spawn("outer", func(p *Proc) error {
		for phase, leaders := range [][]NodeID{{4, 7, 9, 12, 15}, {7, 12}} {
			out, err := fan.Run(p, "frag", phase, leaders, func(d *stepLeader, leader NodeID, o *int) {
				if *o != 0 {
					t.Errorf("phase %d: outcome slot for leader %d not zeroed: %d", phase, leader, *o)
				}
				d.leader, d.out = leader, o
			})
			if err != nil {
				return err
			}
			got = append(got, append([]int(nil), out...))
		}
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[[4 7 9 12 15] [7 12]]" {
		t.Errorf("outcomes %v, want [[4 7 9 12 15] [7 12]]", got)
	}
	if made != 5 {
		t.Errorf("constructed %d drivers, want 5 (phase two reuses the pool)", made)
	}
	for i, tk := range fan.tasks[:cap(fan.tasks)] {
		if i >= 2 && tk != nil {
			t.Errorf("stale task pinned at index %d", i)
		}
	}
}

// stepPanic panics mid-step with a recognizable value.
type stepPanic struct{ val string }

func (d stepPanic) Step(*Task, Wake) (SessionID, bool, error) { panic(d.val) }

// TestDriverPanicParity: a panicking driver surfaces out of Run with the
// original panic value whether a Task or a Proc panics.
func TestDriverPanicParity(t *testing.T) {
	catch := func(spawn func(nw *Network)) (val any) {
		nw := buildNet(t, 2)
		spawn(nw)
		defer func() { val = recover() }()
		_ = nw.Run()
		return nil
	}
	fromTask := catch(func(nw *Network) {
		nw.SpawnStep("boom", stepPanic{val: "driver exploded"})
	})
	fromProc := catch(func(nw *Network) {
		nw.Spawn("boom", func(p *Proc) error { panic("driver exploded") })
	})
	if fromTask != "driver exploded" {
		t.Errorf("task panic surfaced as %v", fromTask)
	}
	if fromProc != "driver exploded" {
		t.Errorf("proc panic surfaced as %v", fromProc)
	}
	if fromTask != fromProc {
		t.Errorf("panic parity broken: task %v vs proc %v", fromTask, fromProc)
	}
}

// TestDriverPanicUnwindsBlockedDrivers: when a panic aborts a Run
// mid-fan-out, every other parked driver goroutine must exit with the Run
// (pending Awaits return ErrRunAborted) and the network must stay usable
// for a fresh Run — no leaked stacks, no stale waiter pointers.
func TestDriverPanicUnwindsBlockedDrivers(t *testing.T) {
	nw, kind := echoNet(t, 8)
	var blockedErr error
	run := func() (val any) {
		defer func() { val = recover() }()
		nw.Spawn("parent", func(p *Proc) error {
			// One child parks on a session nobody completes (the
			// quiescence barrier guarantees it reached its Await), one
			// never gets scheduled (the panic fires while it waits in the
			// run queue), then the parent panics.
			p.Go("blocked", func(cp *Proc) error {
				sid := nw.NewSession(nil)
				_, err := cp.Await(sid)
				blockedErr = err
				return err
			})
			p.AwaitQuiescence()
			p.Go("unstarted", procNop)
			panic("abort mid-fanout")
		})
		_ = nw.Run()
		return nil
	}
	before := runtime.NumGoroutine()
	if got := run(); got != "abort mid-fanout" {
		t.Fatalf("panic surfaced as %v", got)
	}
	if !errors.Is(blockedErr, ErrRunAborted) {
		t.Fatalf("blocked driver unwound with %v, want ErrRunAborted", blockedErr)
	}
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond) // let poisoned loops exit
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked across panicked Run: %d -> %d", before, after)
	}
	// The same network must run cleanly afterwards.
	var got uint64
	nw.SpawnStep("echo", &stepEcho{nw: nw, from: 1, to: 2, kind: kind, out: &got})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 101 {
		t.Errorf("post-panic run echoed %d, want 101", got)
	}
}

// stepStuck awaits a session nobody completes and records the error it is
// unwound with.
type stepStuck struct {
	nw      *Network
	sawErr  *error
	started bool
}

func (d *stepStuck) Step(t *Task, w Wake) (SessionID, bool, error) {
	if !d.started {
		d.started = true
		return d.nw.NewSession(nil), false, nil
	}
	*d.sawErr = w.Err()
	return 0, true, w.Err()
}

// TestTaskDeadlockDetectedAndUnwound mirrors the goroutine-driver deadlock
// test: a blocked task is diagnosed, woken with ErrDeadlock, and unwinds.
func TestTaskDeadlockDetectedAndUnwound(t *testing.T) {
	nw := buildNet(t, 2)
	var sawErr error
	nw.SpawnStep("stuck", &stepStuck{nw: nw, sawErr: &sawErr})
	err := nw.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run error = %v, want deadlock", err)
	}
	if !errors.Is(sawErr, ErrDeadlock) {
		t.Fatalf("task did not observe deadlock: %v", sawErr)
	}
}

// TestTaggedTaskName: lazy task names format like tagged proc names.
func TestTaggedTaskName(t *testing.T) {
	nw := buildNet(t, 2)
	var name string
	nw.Spawn("outer", func(p *Proc) error {
		tk := p.GoStepTagged("findmin", 3, 17, nopDriver)
		name = tk.Name()
		return p.WaitTasks(tk)
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if name != "findmin-p3-f17" {
		t.Fatalf("tagged task name %q, want findmin-p3-f17", name)
	}
}

// procNop is deliberately a package function: the spawn-path gate must
// measure the engine, not a capturing closure at the call site.
func procNop(p *Proc) error { return nil }

// TestPooledDriverSpawnAllocs pins the pooled driver path: after a warm-up
// wave, spawning and joining 64 children per wave must not allocate
// goroutines or channels — within one Run the pool recycles everything,
// so a wave costs only constant engine bookkeeping.
func TestPooledDriverSpawnAllocs(t *testing.T) {
	race.SkipAllocTest(t)
	g := graph.Path(2, 1, graph.UnitWeights())
	nw := NewNetwork(g)
	procs := make([]*Proc, 0, 64)
	wave := func() {
		nw.Spawn("outer", func(p *Proc) error {
			// Two fan-out phases inside one Run: the second must reuse the
			// first phase's driver goroutines via the pool.
			for phase := 0; phase < 2; phase++ {
				procs = procs[:0]
				for i := 0; i < 64; i++ {
					procs = append(procs, p.Go("child", procNop))
				}
				if err := p.WaitAll(procs...); err != nil {
					return err
				}
			}
			return nil
		})
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
	}
	wave()
	avg := testing.AllocsPerRun(5, wave)
	// Budget: the first phase's 65 fresh goroutines + channels are paid
	// once per Run (the pool drains at Run end); the second phase must be
	// free. ~6 allocs per fresh driver, plus slack.
	allocBudget(t, "pooled driver fan-out (2 phases x 64 children)", avg, 65*8)
}

// TestPooledDriverReuseWithinRun proves the second phase allocates no new
// driver goroutines: the pool must satisfy it entirely.
func TestPooledDriverReuseWithinRun(t *testing.T) {
	g := graph.Path(2, 1, graph.UnitWeights())
	nw := NewNetwork(g)
	created := func() int { return len(nw.allProcs) }
	nw.Spawn("outer", func(p *Proc) error {
		base := created()
		for phase := 0; phase < 3; phase++ {
			var procs []*Proc
			for i := 0; i < 32; i++ {
				procs = append(procs, p.Go("child", procNop))
			}
			if err := p.WaitAll(procs...); err != nil {
				return err
			}
			if phase == 0 {
				base = created()
			} else if got := created(); got != base {
				return fmt.Errorf("phase %d created %d new drivers, want 0", phase, got-base)
			}
		}
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if len(nw.allProcs) != 0 {
		t.Fatalf("pool not drained at Run end: %d procs retained", len(nw.allProcs))
	}
}
