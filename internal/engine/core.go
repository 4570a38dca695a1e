package engine

// The reusable execution core shared by both frontends: per-worker harness
// instances (each re-run through its own persistent sched.Executor and reset
// between executions), the lock that serializes harness
// construction/check/reset, the batched seeded sampling loop with its
// seed-order merge discipline, and the conversion of a panicking harness
// closure into a named error.

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

// Core owns the execution-driving state both frontends share: one harness,
// up to workers live instances, and the lock serializing construction,
// check and reset calls (so harness closures may accumulate into shared
// state across executions — the Harness contract).
type Core struct {
	h Harness
	// insts is atomically published per slot: each slot is written only by
	// its owning worker, but the observability fold sources read all slots
	// concurrently with the walk.
	insts []atomic.Pointer[instance]
	// checkMu serializes harness construction, check and reset calls, and
	// (in the exhaustive walker) guards the merged result fields.
	checkMu sync.Mutex
}

// NewCore creates a core for up to the given number of concurrent workers
// (minimum 1). Instances are constructed lazily, one per worker.
func NewCore(h Harness, workers int) *Core {
	if workers < 1 {
		workers = 1
	}
	return &Core{h: h, insts: make([]atomic.Pointer[instance], workers)}
}

// instanceFor returns worker w's instance, constructing it — and its pooled
// executor — on first use (serialized with checks, so harness closures may
// share state). A harness without a reset closure is rejected here — there
// is no second way to run one — and so is one over more than
// sched.MaxProcs processes. A constructor that panics is reported as an
// error, like any other harness closure.
func (c *Core) instanceFor(w int) (*instance, error) {
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
func (c *Core) construct() (env *memory.Env, bodies []func(p *memory.Proc), check func(res *sched.Result) error, reset func(), err error) {
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

// Close releases every pooled executor the core constructed.
func (c *Core) Close() {
	for i := range c.insts {
		if inst := c.insts[i].Load(); inst != nil {
			inst.exec.Close()
		}
	}
}

// RegisterObs registers the core's layer-level fold-on-read sources on m:
// the executors' scheduling census (decisions, self-grants vs handoffs,
// crash unwinds, replay entries) and the environments' cumulative memory
// access census by kind. The closures walk the live instances on every
// read, so instances constructed after registration participate. The
// returned function removes the sources; callers must invoke it before the
// core is closed for reads to stay meaningful, though reads after Close
// are safe (counters survive; they just stop moving).
func (c *Core) RegisterObs(m *obs.Metrics) (remove func()) {
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
		execStat("sched_handoffs_total", "Decisions handing the baton to another process (two coroutine switches).",
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
// any other value — the decision procedure itself. Both frontends recover
// on the worker goroutine, stop, and return this instead of a verdict; the
// instance is abandoned to Core.Close, which unwinds whatever the aborted
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

// Probe runs one throwaway execution under the strategy on worker 0's
// instance — resetting it afterwards — and returns the schedule length
// (minimum 1). The sampling frontends use it to measure deterministic
// schedule-length bounds (the PCT k parameter) before sampling starts. A
// panicking harness is reported as in SampleBatches.
func (c *Core) Probe(s sched.Chooser) (depth int, err error) {
	inst, err := c.instanceFor(0)
	if err != nil {
		return 0, err
	}
	stage := stageRun
	defer func() {
		if r := recover(); r != nil {
			err = harnessPanic(stage, r, nil)
		}
	}()
	res := inst.exec.Run(s)
	c.checkMu.Lock()
	defer c.checkMu.Unlock()
	stage = stageReset
	inst.env.Reset()
	inst.reset()
	return max(len(res.Schedule), 1), nil
}

// SeedOutcome is the per-run record of the sampling loop, merged in seed
// order into whatever report the frontend folds.
type SeedOutcome struct {
	// Seed is the run's seed.
	Seed int64
	// Depth is the schedule length.
	Depth int
	// Shape is the schedule-shape signature (see ShapeHash).
	Shape uint64
	// Fingerprint is the terminal-state digest, taken before the instance
	// is reset; FingerprintOK reports whether the harness registers
	// fingerprintable objects.
	Fingerprint   memory.Fingerprint
	FingerprintOK bool
	// Weight is stamped by the strategy's finish hook (importance-weighted
	// samplers); zero otherwise.
	Weight float64
	// Err is the check failure, if any; Schedule is retained only then, so
	// the failing interleaving can be replayed.
	Err      error
	Schedule []sched.Choice
}

// SeedStrategy builds the seeded strategy for one run over n processes.
// The returned finish hook, when non-nil, is called with the run's outcome
// after the execution completes (before check and reset), so the frontend
// can stamp sampler-specific data — e.g. an importance weight read off the
// strategy instance. Each sampling worker owns one SeedStrategy and calls it
// for one run at a time, so it may hand back the same re-armed strategy
// value every call.
type SeedStrategy func(seed int64, n int) (sched.Chooser, func(out *SeedOutcome))

// SampleConfig bounds a batched sampling loop.
type SampleConfig struct {
	// Samples is the total number of seeded runs: seeds Seed..Seed+Samples-1.
	Samples int
	// Seed is the base seed.
	Seed int64
	// BatchSize is the number of consecutive seeds merged at a time
	// (minimum 1). It is the determinism granule: the fold sees whole
	// batches in seed order, so any stop decision lands on a batch
	// boundary and results depend on BatchSize but never on the worker
	// count.
	BatchSize int
	// Metrics, when non-nil, counts completed seeded runs on the domain's
	// sharded Samples counter. Strictly advisory: the loop never reads it,
	// so every field the frontend folds is identical with it attached or
	// nil.
	Metrics *obs.Metrics
}

// SampleBatches runs seeds cfg.Seed..cfg.Seed+cfg.Samples-1 through the
// strategy in fixed-size batches. Within a batch, runs execute on the
// core's worker pool — each worker owning one pooled instance and one
// SeedStrategy from newStrat — but outcomes are delivered to fold as one
// seed-ordered slice per batch, so everything the frontend derives from
// them is independent of the worker count; only wall-clock changes. fold
// returning false stops the loop after that batch (failure stops,
// saturation stops).
//
// A harness closure that panics — or a harness the core rejects at
// construction — ends the loop: the workers stop, the batch is not folded,
// and the error names the cause (of several in one batch, the one on the
// lowest seed reached) and its seed.
func (c *Core) SampleBatches(cfg SampleConfig, newStrat func() SeedStrategy, fold func(batch []SeedOutcome) bool) error {
	batch := cfg.BatchSize
	if batch < 1 {
		batch = 1
	}
	workers := len(c.insts)
	strats := make([]SeedStrategy, workers) // slot w is touched only by worker w
	next := cfg.Seed
	for remaining := cfg.Samples; remaining > 0; {
		m := batch
		if remaining < m {
			m = remaining
		}
		outs := make([]SeedOutcome, m)
		fatal := make([]*seedFatal, workers) // slot w is touched only by worker w
		var idx atomic.Int64
		var stop atomic.Bool
		var wg sync.WaitGroup
		active := workers
		if m < active {
			active = m
		}
		for w := 0; w < active; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if strats[w] == nil {
					strats[w] = newStrat()
				}
				for !stop.Load() {
					i := int(idx.Add(1)) - 1
					if i >= m {
						return
					}
					outs[i], fatal[w] = c.runSeed(w, next+int64(i), strats[w])
					if fatal[w] != nil {
						stop.Store(true)
						return
					}
					if cfg.Metrics != nil {
						cfg.Metrics.Samples.Inc(w)
					}
				}
			}(w)
		}
		wg.Wait()
		if stop.Load() {
			// Seeds are claimed in order and each worker stops at its first
			// fatal run, so the lowest such seed is among the recorded ones.
			var first *seedFatal
			for _, sp := range fatal {
				if sp != nil && (first == nil || sp.seed < first.seed) {
					first = sp
				}
			}
			return first
		}
		next += int64(m)
		remaining -= m
		if !fold(outs) {
			return nil
		}
	}
	return nil
}

// seedFatal is what ends a sampling loop — a harness panic, or a harness
// rejected at construction — tagged with the seed whose run hit it.
type seedFatal struct {
	seed int64
	err  error
}

func (e *seedFatal) Error() string { return fmt.Sprintf("seed %d: %v", e.seed, e.err) }
func (e *seedFatal) Unwrap() error { return e.err }

// runSeed performs one seeded run on worker w's instance and records its
// outcome. The terminal fingerprint is taken before the instance is reset,
// and a failing schedule is copied out of the executor's reused Result. A
// panic in a harness closure, or a rejected harness, comes back as fatal.
func (c *Core) runSeed(w int, seed int64, strat SeedStrategy) (out SeedOutcome, fatal *seedFatal) {
	inst, err := c.instanceFor(w)
	if err != nil {
		return out, &seedFatal{seed: seed, err: err}
	}
	stage := stageRun
	var res *sched.Result
	defer func() {
		if r := recover(); r != nil {
			fatal = &seedFatal{seed: seed, err: harnessPanic(stage, r, res)}
		}
	}()
	s, finish := strat(seed, inst.env.N())
	res = inst.exec.Run(s)
	out = SeedOutcome{Seed: seed, Depth: len(res.Schedule), Shape: ShapeHash(res.Schedule)}
	out.Fingerprint, out.FingerprintOK = inst.env.Fingerprint()
	if finish != nil {
		finish(&out)
	}
	c.checkMu.Lock()
	defer c.checkMu.Unlock()
	stage = stageCheck
	if err := inst.check(res); err != nil {
		out.Err = err
		out.Schedule = append([]sched.Choice(nil), res.Schedule...)
	}
	stage = stageReset
	inst.env.Reset()
	inst.reset()
	return out, nil
}

// ShapeHash folds a schedule's (proc, crash) sequence into a 64-bit
// signature — the coverage unit for "distinct schedule shapes".
func ShapeHash(schedule []sched.Choice) uint64 {
	h := memory.NewStateHash()
	for _, c := range schedule {
		w := uint64(c.Proc) << 1
		if c.Crash {
			w |= 1
		}
		h.Add(w)
	}
	return h.Sum()
}
