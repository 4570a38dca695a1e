package sched

import (
	"fmt"
	"sync/atomic"

	"repro/internal/memory"
)

// Executor runs many controlled executions over one environment without
// paying per-execution construction costs. Where RunChooser spawns one
// goroutine per process body and tears everything down when the execution
// ends, an Executor keeps the process goroutines alive between executions:
// each one loops, waiting on a start signal, running its body to
// completion (or crash unwinding), and parking again.
//
// Scheduling is baton-passing rather than RunChooser's dedicated scheduler
// loop: the last process to park or finish becomes the decider — it runs
// the chooser itself, records the choice, and hands the baton directly to
// the granted process. One step therefore costs one channel handoff (zero
// goroutine switches when a process grants itself, as in solo tails),
// versus the two handoffs per step of the park-message-plus-grant
// protocol, and the per-decision bookkeeping runs over preallocated
// per-process arrays. The baton discipline serializes all accesses to the
// shared decision state: only one process is ever past its park point, and
// every baton transfer is an atomic-counter or channel edge.
//
// The contract is that bodies are re-runnable: between two Run calls the
// caller must restore all shared state the bodies touch (typically
// memory.Env.Reset plus a harness-level reset), so every execution starts
// from the same initial state. The explore package's pooled mode is built
// on exactly this pairing.
//
// An Executor is not safe for concurrent use; Run and Close must be called
// from one goroutine at a time, and no other executor or Run call may
// drive the same environment concurrently. Result.Parked is never filled
// (RunChooser retains the recorded parked sets for callers that need
// them).
//
// Every run returns the same *Result, reset and refilled: it is valid until
// the next run on this executor (see Result). An exhaustive walk performs
// hundreds of thousands of runs per executor, so a run allocates nothing.
type Executor struct {
	env    *memory.Env
	bodies []func(p *memory.Proc)
	n      int
	closed bool

	start  []chan struct{}
	grants []chan bool
	done   chan struct{}

	// Per-run decision state, owned by the baton holder. res points at
	// result for the duration of a run and is nil between runs.
	chooser   Chooser
	res       *Result
	result    Result          // the one Result every run refills
	strat     strategyChooser // RunStrategy's adapter, reused across runs
	executing atomic.Int32
	parkedAcc []memory.Access
	isParked  []bool
	states    []ProcState

	stats ExecStats
}

// ExecStats is the executor's lifetime scheduling census: cumulative across
// every run the executor performed, monotone, and purely advisory — the
// observability layer folds it on read; nothing consults it on a decision
// path. All updates happen while holding the baton, so plain atomics
// suffice for cross-goroutine reads.
type ExecStats struct {
	// Runs counts Run/RunCapture/RunReplay calls; ReplayRuns the RunReplay
	// subset (snapshot-restored re-entries).
	Runs       atomic.Int64
	ReplayRuns atomic.Int64
	// Decisions counts scheduler decisions (== granted steps + crashes).
	Decisions atomic.Int64
	// SelfGrants counts decisions where the baton holder granted itself —
	// the zero-goroutine-switch fast path; Handoffs counts the rest.
	SelfGrants atomic.Int64
	Handoffs   atomic.Int64
	// CrashUnwinds counts crash grants (each unwinds one process body).
	CrashUnwinds atomic.Int64
}

// NewExecutor creates a pooled executor for the environment and bodies.
// len(bodies) must equal env.N(). The executor owns n parked goroutines
// until Close is called.
func NewExecutor(env *memory.Env, bodies []func(p *memory.Proc)) *Executor {
	n := env.N()
	if len(bodies) != n {
		panic(fmt.Sprintf("sched: %d bodies for %d processes", len(bodies), n))
	}
	// All channels are buffered with capacity one: the protocol keeps at
	// most one signal outstanding per channel, so sends never block — in
	// particular a decider granting itself completes without a goroutine
	// switch.
	x := &Executor{
		env:       env,
		bodies:    bodies,
		n:         n,
		start:     make([]chan struct{}, n),
		grants:    make([]chan bool, n),
		done:      make(chan struct{}, 1),
		parkedAcc: make([]memory.Access, n),
		isParked:  make([]bool, n),
		states:    make([]ProcState, 0, n),
		result: Result{
			Finished: make([]bool, n),
			Crashed:  make([]bool, n),
			Steps:    make([]int64, n),
		},
	}
	for i := 0; i < n; i++ {
		x.start[i] = make(chan struct{}, 1)
		x.grants[i] = make(chan bool, 1)
		go x.loop(i)
	}
	return x
}

// loop is the pooled process goroutine: one body execution per start
// signal, with crash unwinding recovered so the goroutine survives for the
// next execution.
func (x *Executor) loop(i int) {
	p := x.env.Proc(i)
	for range x.start[i] {
		x.runBody(i, p)
	}
}

func (x *Executor) runBody(i int, p *memory.Proc) {
	defer func() {
		if r := recover(); r != nil {
			if cs, ok := r.(crashSignal); ok && cs.proc == i {
				// Crashed[i] was recorded by the decider that granted the
				// crash; the goroutine just retires from this execution.
				x.retire()
				return
			}
			if rc, ok := r.(memory.ReplayCrash); ok && rc.Proc == i {
				// The replayed prefix crashed this process; Crashed[i] was
				// seeded from the recorded schedule.
				x.retire()
				return
			}
			panic(r)
		}
		x.res.Finished[i] = true
		x.retire()
	}()
	x.bodies[i](p)
}

// Enter implements memory.Gate: park the calling process and, if it was
// the last one still executing, assume the baton and decide the next step.
func (x *Executor) Enter(p *memory.Proc, a memory.Access) {
	i := p.ID()
	x.parkedAcc[i] = a
	x.isParked[i] = true
	if x.executing.Add(-1) == 0 {
		x.decide(i)
	}
	if !<-x.grants[i] {
		panic(crashSignal{proc: i})
	}
}

// retire is the finish-path twin of Enter's park: the process leaves the
// execution, and the baton falls to it if nobody else is executing.
func (x *Executor) retire() {
	if x.executing.Add(-1) == 0 {
		x.decide(-1)
	}
}

// decide runs one scheduler decision while holding the baton: pick a
// parked process (or report the run finished), record the choice, and pass
// the baton to the granted process. from is the deciding process (the one
// that just parked), or -1 when the baton fell from a retiring process.
func (x *Executor) decide(from int) {
	res := x.res
	states := x.states[:0]
	for i := 0; i < x.n; i++ {
		if x.isParked[i] {
			states = append(states, ProcState{ID: i, Next: x.parkedAcc[i]})
		}
	}
	if len(states) == 0 {
		x.done <- struct{}{} // every process finished or crashed
		return
	}
	c := x.chooser.Choose(len(res.Schedule), states)
	if c.Proc < 0 || c.Proc >= x.n || !x.isParked[c.Proc] {
		panic(fmt.Sprintf("sched: chooser chose non-parked process %d from %v", c.Proc, states))
	}
	res.Schedule = append(res.Schedule, c)
	res.Accesses = append(res.Accesses, x.parkedAcc[c.Proc])
	x.isParked[c.Proc] = false
	x.stats.Decisions.Add(1)
	if c.Proc == from {
		x.stats.SelfGrants.Add(1)
	} else {
		x.stats.Handoffs.Add(1)
	}
	if c.Crash {
		x.stats.CrashUnwinds.Add(1)
		res.Crashed[c.Proc] = true
		x.env.Proc(c.Proc).MarkCrashed()
		// The executing count must be restored before the grant lands: the
		// victim unwinds, retires, and may become the next decider.
		x.executing.Store(1)
		x.grants[c.Proc] <- false
		return
	}
	res.Steps[c.Proc]++
	x.env.Proc(c.Proc).SetPos(len(res.Schedule))
	x.executing.Store(1)
	x.grants[c.Proc] <- true
}

// PrefixView returns the current run's schedule and accesses so far. It
// must be called from inside a chooser decision (the baton holder). The
// slices alias the executor's reused Result buffers: they are overwritten
// by the next run, so a caller that retains the prefix (a snapshot
// capture) copies it.
func (x *Executor) PrefixView() ([]Choice, []memory.Access) {
	return x.res.Schedule, x.res.Accesses
}

// Prefix seeds a run from a recorded prefix: the schedule and access
// sequence of the first d decisions, and the per-process value logs those
// decisions produced. The memory state must already have been restored to
// the matching snapshot (memory.Env.Restore) before RunReplay is called.
type Prefix struct {
	Schedule []Choice
	Accesses []memory.Access
	Logs     [][]memory.ReplayRec
	// PosAfter optionally pre-computes, per process, the schedule position
	// after each of its granted steps (parallel to Logs). When nil, RunReplay
	// derives it from Schedule; a caller replaying the same prefix many times
	// computes it once instead.
	PosAfter [][]int32
}

// Run performs one controlled execution under the chooser and returns its
// summary, valid until the executor's next run. The ProcState slice passed
// to the chooser is scratch reused across decisions; choosers must not
// retain it past the call.
func (x *Executor) Run(chooser Chooser) *Result {
	return x.run(chooser, nil, false)
}

// RunCapture is Run with per-process value logging enabled, so that a
// snapshot taken at any decision point of this run can later seed
// RunReplay for a sibling branch.
func (x *Executor) RunCapture(chooser Chooser) *Result {
	return x.run(chooser, nil, true)
}

// RunReplay re-enters a run mid-prefix: the recorded decisions are seeded
// into the result, and every process re-executes its body in fast-forward,
// consuming its value log instead of touching memory or the gate. A
// process that exhausts its log either unwinds (its recorded crash) or
// rejoins the live run at its next access; the first live scheduler
// decision therefore happens at exactly the recorded prefix's end, with
// every surviving process parked at the same access as in the original
// run. Capture stays enabled for the live suffix, so snapshots taken
// there are themselves replayable.
func (x *Executor) RunReplay(chooser Chooser, rp *Prefix) *Result {
	return x.run(chooser, rp, true)
}

// Stats returns the executor's lifetime scheduling census. The pointer is
// valid for the executor's lifetime; fields are read with their atomics.
func (x *Executor) Stats() *ExecStats { return &x.stats }

func (x *Executor) run(chooser Chooser, rp *Prefix, capture bool) *Result {
	if x.closed {
		panic("sched: Run on closed Executor")
	}
	x.stats.Runs.Add(1)
	if rp != nil {
		x.stats.ReplayRuns.Add(1)
	}
	n := x.n
	res := &x.result
	res.Schedule = res.Schedule[:0]
	res.Accesses = res.Accesses[:0]
	clear(res.Finished)
	clear(res.Crashed)
	clear(res.Steps)
	if rp != nil {
		res.Schedule = append(res.Schedule, rp.Schedule...)
		res.Accesses = append(res.Accesses, rp.Accesses...)
		// Per-process positions after each granted step, for stamp
		// regeneration during fast-forward (precomputed by the caller when
		// the prefix is replayed more than once).
		posAfter := rp.PosAfter
		if posAfter == nil {
			posAfter = make([][]int32, n)
			for j, c := range rp.Schedule {
				if !c.Crash {
					posAfter[c.Proc] = append(posAfter[c.Proc], int32(j+1))
				}
			}
		}
		for _, c := range rp.Schedule {
			if c.Crash {
				res.Crashed[c.Proc] = true
			} else {
				res.Steps[c.Proc]++
			}
		}
		for i := 0; i < n; i++ {
			var log []memory.ReplayRec
			if i < len(rp.Logs) {
				log = rp.Logs[i]
			}
			x.env.Proc(i).StartFF(log, posAfter[i], res.Crashed[i])
		}
	} else if capture {
		for i := 0; i < n; i++ {
			x.env.Proc(i).StartCapture()
		}
	}
	x.res = res
	x.chooser = chooser
	for i := 0; i < n; i++ {
		x.isParked[i] = false
	}
	x.executing.Store(int32(n))
	x.env.SetGate(x)
	for i := 0; i < n; i++ {
		x.start[i] <- struct{}{}
	}
	<-x.done
	// Leave replay/capture mode before removing the gate, so post-run
	// oracle code (which reads shared state through the same primitives)
	// neither logs nor consumes records.
	for i := 0; i < n; i++ {
		x.env.Proc(i).EndReplay()
	}
	x.env.SetGate(nil)
	x.res = nil
	x.chooser = nil
	return res
}

// RunStrategy is Run for id-only deciders.
func (x *Executor) RunStrategy(s Strategy) *Result {
	x.strat.s = s
	res := x.Run(&x.strat)
	x.strat.s = nil
	return res
}

// Close releases the pooled goroutines. The executor must be idle (no Run
// in progress). Close is idempotent.
func (x *Executor) Close() {
	if x.closed {
		return
	}
	x.closed = true
	for i := range x.start {
		close(x.start[i])
	}
}
