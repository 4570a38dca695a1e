package engine

// The execution core Run and Sample share: per-worker harness instances
// (each re-run through its own persistent sched.Executor and reset between
// executions), the lock that serializes harness construction/check/reset,
// the layer census both register for observability, and the conversion of a
// panicking harness closure into a named error.

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/sched"
)

// instance is one worker's constructed harness: the worker keeps it for its
// whole lifetime and re-runs it through the pooled executor.
type instance struct {
	env   *memory.Env
	check func(res *sched.Result) error
	reset func()
	exec  *sched.Executor
}

// ErrNilReset is the rejection of a harness whose constructor returns no
// reset closure; the error wrapping it names the harness function.
var ErrNilReset = errors.New("engine: harness returned a nil reset")

// core owns the execution-driving state Run and Sample share: one harness,
// up to workers live instances, and the lock serializing construction,
// check and reset calls (so harness closures may accumulate into shared
// state across executions — the Harness contract).
type core struct {
	h Harness
	// insts is atomically published per slot: each slot is written only by
	// its owning worker, but the observability fold sources read all slots
	// concurrently with the walk.
	insts []atomic.Pointer[instance]
	// checkMu serializes harness construction, check and reset calls, and
	// (in the exhaustive walk) guards the merged result fields.
	checkMu sync.Mutex
}

// newCore creates a core for up to the given number of concurrent workers
// (minimum 1). Instances are constructed lazily, one per worker.
func newCore(h Harness, workers int) *core {
	return &core{h: h, insts: make([]atomic.Pointer[instance], max(workers, 1))}
}

// instanceFor returns worker w's instance, constructing it — and its pooled
// executor — on first use (serialized with checks, so harness closures may
// share state). A harness without a reset closure is rejected here — there
// is no second way to run one — and so is one over more than
// sched.MaxProcs processes. A constructor that panics is reported as an
// error, like any other harness closure.
func (c *core) instanceFor(w int) (*instance, error) {
	if inst := c.insts[w].Load(); inst != nil {
		return inst, nil
	}
	env, bodies, check, reset, err := c.construct()
	if err != nil {
		return nil, err
	}
	if err := sched.CheckProcs(env.N()); err != nil {
		return nil, err
	}
	if reset == nil {
		return nil, fmt.Errorf("%w: %s must register its shared objects with the Env and return a reset restoring its own state",
			ErrNilReset, runtime.FuncForPC(reflect.ValueOf(c.h).Pointer()).Name())
	}
	inst := &instance{env: env, check: check, reset: reset, exec: sched.NewExecutor(env, bodies)}
	c.insts[w].Store(inst)
	return inst, nil
}

// construct calls the harness under the check lock. A panic comes back as
// an error that wraps the panic value when it is one.
func (c *core) construct() (env *memory.Env, bodies []func(p *memory.Proc), check func(res *sched.Result) error, reset func(), err error) {
	c.checkMu.Lock()
	defer c.checkMu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: harness constructor panicked: %v", r)
			if e, ok := r.(error); ok {
				err = fmt.Errorf("engine: harness constructor panicked: %w", e)
			}
		}
	}()
	env, bodies, check, reset = c.h()
	return env, bodies, check, reset, nil
}

// close releases every pooled executor the core constructed.
func (c *core) close() {
	for i := range c.insts {
		if inst := c.insts[i].Load(); inst != nil {
			inst.exec.Close()
		}
	}
}

// registerObs registers the core's layer-level fold-on-read sources on m:
// the executors' scheduling census (decisions, self-grants vs handoffs,
// crash unwinds, replay entries) and the environments' cumulative memory
// access census by kind. The closures walk the live instances on every
// read, so instances constructed after registration participate. The
// returned function removes the sources; callers must invoke it before the
// core is closed for reads to stay meaningful, though reads after Close
// are safe (counters survive; they just stop moving).
func (c *core) registerObs(m *obs.Metrics) (remove func()) {
	if m == nil {
		return func() {}
	}
	execStat := func(name, help string, pick func(*sched.ExecStats) int64) func() {
		return m.AddSource(name, help, false, func() int64 {
			var t int64
			for i := range c.insts {
				if inst := c.insts[i].Load(); inst != nil {
					t += pick(inst.exec.Stats())
				}
			}
			return t
		})
	}
	removes := []func(){
		execStat("sched_decisions_total", "Scheduler decisions made by pooled executors.",
			func(s *sched.ExecStats) int64 { return s.Decisions.Load() }),
		execStat("sched_self_grants_total", "Decisions where the baton holder granted itself (no coroutine switch).",
			func(s *sched.ExecStats) int64 { return s.SelfGrants.Load() }),
		execStat("sched_handoffs_total", "Decisions handing the baton to another process (one coroutine switch).",
			func(s *sched.ExecStats) int64 { return s.Handoffs.Load() }),
		execStat("sched_crash_unwinds_total", "Crash grants (each unwinds one process body).",
			func(s *sched.ExecStats) int64 { return s.CrashUnwinds.Load() }),
		execStat("sched_runs_total", "Executions entered through pooled executors.",
			func(s *sched.ExecStats) int64 { return s.Runs.Load() }),
	}
	kindNames := [6]string{"read", "write", "cas", "tas", "fetch_inc", "swap"}
	envStat := func(name, help string, pick func(*memory.Env) int64) func() {
		return m.AddSource(name, help, false, func() int64 {
			var t int64
			for i := range c.insts {
				if inst := c.insts[i].Load(); inst != nil {
					t += pick(inst.env)
				}
			}
			return t
		})
	}
	removes = append(removes,
		envStat("mem_steps_total", "Shared-memory accesses performed (all kinds).",
			func(e *memory.Env) int64 { s, _, _ := e.CumulativeCounts(); return s }),
		envStat("mem_rmws_total", "Read-modify-write accesses performed.",
			func(e *memory.Env) int64 { _, r, _ := e.CumulativeCounts(); return r }))
	for k, kn := range kindNames {
		k := k
		removes = append(removes,
			envStat("mem_accesses_"+kn+"_total", "Shared-memory accesses of kind "+kn+".",
				func(e *memory.Env) int64 { _, _, ks := e.CumulativeCounts(); return ks[k] }))
	}
	return func() {
		for _, r := range removes {
			r()
		}
	}
}

// The stages of one execution a harness closure can panic in.
const (
	stageRun   = "run"
	stageCheck = "check"
	stageReset = "reset"
)

// harnessPanic names a panic recovered while driving a harness: a process
// body (the executor reports those as *sched.PanicError, with the process id
// and the schedule so far), the check or reset closure, or — stageRun with
// any other value — the decision procedure itself. Run and Sample recover
// on the worker goroutine, stop, and return this instead of a verdict; the
// instance is abandoned to core.close, which unwinds whatever the aborted
// run left parked. res is the run's result, nil if the run did not finish.
func harnessPanic(stage string, r any, res *sched.Result) error {
	if pe, ok := r.(*sched.PanicError); ok {
		return fmt.Errorf("engine: harness body panicked: %w", pe)
	}
	var schedule []sched.Choice
	if res != nil {
		schedule = res.Schedule
	}
	if stage == stageRun {
		return fmt.Errorf("engine: panic while scheduling after %v: %v", schedule, r)
	}
	return fmt.Errorf("engine: harness %s panicked on schedule %v: %v", stage, schedule, r)
}
