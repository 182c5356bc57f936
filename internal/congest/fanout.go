package congest

// Fanout is the per-phase fan-out of a Borůvka-style build: one
// continuation driver per fragment leader, spawned from the phase
// controller and joined before the phase barrier. It owns everything the
// fan-out recycles across phases — the driver pool, the per-fragment
// outcome slots and the task slice — so a warm phase spawns its whole
// fan-out without allocating. At scale the first phase spawns one driver
// per node (100k at 100k nodes), which is also why the stale-tail
// clearing lives here: finished tasks must not stay reachable through the
// backing array. D is the algorithm's driver type, R its per-fragment
// outcome.
type Fanout[D StepDriver, R any] struct {
	// New constructs a driver when the pool has fewer than a phase needs
	// (fragment counts only shrink, so in practice only in phase one).
	New func() D

	drivers  []D
	outcomes []R
	tasks    []*Task
}

// Run spawns one driver per leader, named "<prefix>-p<phase>-f<leader>",
// after init arms it for that leader and its zeroed outcome slot; then it
// blocks p until every driver finished. It returns the outcomes, indexed
// like leaders and valid until the next Run, with the first driver error.
func (f *Fanout[D, R]) Run(p *Proc, prefix string, phase int, leaders []NodeID, init func(d D, leader NodeID, out *R)) ([]R, error) {
	if cap(f.outcomes) < len(leaders) {
		f.outcomes = make([]R, len(leaders))
	}
	f.outcomes = f.outcomes[:len(leaders)]
	clear(f.outcomes)
	tasks := f.tasks[:0]
	for i, leader := range leaders {
		if len(f.drivers) <= i {
			f.drivers = append(f.drivers, f.New())
		}
		d := f.drivers[i]
		init(d, leader, &f.outcomes[i])
		tasks = append(tasks, p.GoStepTagged(prefix, uint64(phase), uint64(leader), d))
	}
	if n := len(tasks); n < len(f.tasks) {
		clear(f.tasks[n:])
	}
	f.tasks = tasks
	return f.outcomes, p.WaitTasks(tasks...)
}
