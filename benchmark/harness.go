package main

// Wrapping an engine.Harness from the outside: the traced run hands the
// engines (and the stress driver) a harness whose four closures —
// construct, bodies, check, reset — record spans and counts into the
// ledger before delegating. The wrapped harness obeys the same contract as
// the one it wraps, so the engines cannot tell the difference; what the
// wrapping costs is reported as trace.overhead_ratio.

import (
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// probeSchedules is how many completed schedules the tap keeps for the
// sched.decision_ns probe to replay through a bare executor.
const probeSchedules = 2000

// snapEvery is the check-call period of in-run obs snapshots. The engines
// unregister their scheduler and memory fold sources when a run returns,
// so those counters can only be read while it is still going; reading at
// every snapEvery-th check keeps the read points (and so, at one worker,
// the values) reproducible.
const snapEvery = 256

// tap is what the wrapped closures of one traced run collect.
type tap struct {
	l *ledger
	// bodies selects per-body spans. The stress driver runs a body in
	// well under a microsecond, so timing each from outside would distort
	// what it measures; stress ops are counted by the driver itself.
	bodies bool
	obs    *obs.Metrics
	// h is the untapped harness, which the layer probes construct their
	// own instance from after the run.
	h engine.Harness

	checks atomic.Int64

	mu        sync.Mutex
	envs      []*memory.Env
	schedules [][]sched.Choice
	snap      obs.Snapshot
}

// harness wraps h so that every closure call lands in the ledger.
func (t *tap) harness(h engine.Harness) engine.Harness {
	t.h = h
	return func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		start := t.l.now()
		env, bodies, check, reset := h()
		t.l.add(spConstruct, 0, start, t.l.now(), 1)
		t.mu.Lock()
		t.envs = append(t.envs, env)
		t.mu.Unlock()

		if t.bodies {
			wrapped := make([]func(p *memory.Proc), len(bodies))
			for i, body := range bodies {
				wrapped[i] = func(p *memory.Proc) {
					s := t.l.now()
					body(p)
					t.l.add(spBody, i+1, s, t.l.now(), 1)
				}
			}
			bodies = wrapped
		}
		wcheck := check
		if check != nil {
			wcheck = func(res *sched.Result) error {
				s := t.l.now()
				err := check(res)
				t.l.add(spCheck, 0, s, t.l.now(), 1)
				t.onCheck(res)
				return err
			}
		}
		wreset := reset
		if reset != nil {
			wreset = func() {
				s := t.l.now()
				reset()
				t.l.add(spReset, 0, s, t.l.now(), 1)
				t.l.run.Add(1)
			}
		}
		return env, bodies, wcheck, wreset
	}
}

// onCheck runs after every wrapped check: it keeps the first completed
// schedules for the executor probe and periodically folds the obs domain
// while the engine's layer sources are still registered.
func (t *tap) onCheck(res *sched.Result) {
	n := t.checks.Add(1)
	if n <= probeSchedules && len(res.Schedule) > 0 {
		t.mu.Lock()
		t.schedules = append(t.schedules, append([]sched.Choice(nil), res.Schedule...))
		t.mu.Unlock()
	}
	if t.obs != nil && n%snapEvery == 0 {
		s := t.obs.Snapshot()
		t.mu.Lock()
		t.snap = s
		t.mu.Unlock()
	}
}

// scenario wraps a scenario value so that every harness it builds is
// tapped — the form the stress driver takes its workload in.
func (t *tap) scenario(sc scenario.Scenario) scenario.Scenario {
	build := sc.Build
	sc.Build = func(n int, opts scenario.Options) (engine.Harness, scenario.Oracle) {
		h, oracle := build(n, opts)
		return t.harness(h), oracle
	}
	return sc
}

// memoryCensus sums the cumulative access census of every environment the
// tapped harness constructed: the memory layer's own count of the steps
// and RMWs the run performed.
func (t *tap) memoryCensus() (steps, rmws int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, env := range t.envs {
		s, r, _ := env.CumulativeCounts()
		steps += s
		rmws += r
	}
	return steps, rmws
}
