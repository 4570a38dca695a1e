package sched

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sync/atomic"

	"repro/internal/memory"
)

// Executor runs controlled executions of one set of process bodies over one
// environment. It is the package's only gate implementation: Run constructs
// one, runs it once and closes it; the engine keeps one per worker and
// re-runs it hundreds of thousands of times.
//
// Shape: a driver and n pull-coroutines. Every process body lives in one
// iter.Pull coroutine created by NewExecutor, and the goroutine that calls
// Run is the driver. A run resumes processes 0..n-1 once each — every one
// executes local code up to its first shared-memory access and parks in
// Enter, or retires — and then loops "resume the process the last
// resumption named" until a coroutine reports that nobody is left. Exactly
// one of the n+1 parties is ever running, so the executor is single-threaded
// by construction: the decision state is plain memory, and the coroutine
// switch is the happens-before edge between consecutive owners (iter.Pull
// pairs it with race-detector annotations, so this holds under -race too).
// No channel, mutex or atomic sits on the step path.
//
// Baton discipline: the process that parks or retires last runs the
// decision on its own stack — builds the parked set, asks the chooser,
// records the choice. If it granted itself it simply returns from Enter: a
// self-grant costs no switch at all, which is what makes solo tails and
// replayed prefixes cheap. Otherwise it yields the chosen id to the driver,
// which resumes that process: a handoff is two coroutine switches (decider
// → driver → grantee), each a register swap that never enters the Go
// scheduler — no gopark/ready, no run queue, no wake-up of an idle P. A
// crash grant is a handoff with a per-process flag set; the victim sees it
// on resume and panics crashSignal, which unwinds its body and retires it.
//
// Lifetime: between runs every coroutine is parked at its retire point (or
// not yet started). Close calls each coroutine's stop function: one waiting
// between runs returns, and one parked mid-body — the remains of a run a
// panic aborted — sees its yield return false and unwinds the body with a
// private sentinel panic that never leaves the coroutine. No goroutine
// outlives Close. A panic in a process body (other than the executor's own
// unwinding signals) is wrapped in a *PanicError and propagates out of Run
// on the driver's goroutine; a panic in the chooser propagates unwrapped.
// The run is then aborted: the executor refuses further runs and must be
// closed.
//
// Contract: bodies are re-runnable — between two runs the caller restores
// all shared state they touch (typically memory.Env.Reset plus a
// harness-level reset). An Executor is not safe for concurrent use; runs
// and Close must be called from one goroutine at a time (not necessarily
// the same one), and nothing else may drive the same environment
// concurrently. Every run returns the same *Result, reset and refilled: it
// is valid until the next run on this executor (see Result), and a run
// allocates nothing.
type Executor struct {
	env    *memory.Env
	bodies []func(p *memory.Proc)
	n      int
	closed bool

	// Per-process coroutine handles: next resumes process i and returns the
	// value it yields (a process id to resume, idle, or done), stop ends it,
	// and yield is the coroutine-side half, published when the coroutine
	// first runs.
	next  []func() (int, bool)
	stop  []func()
	yield []func(int) bool

	// Per-run decision state, owned by whoever is running. res points at
	// result for the duration of a run — and stays set after an aborted one
	// — and is nil otherwise.
	chooser   Chooser
	res       *Result
	result    Result          // the one Result every run refills
	strat     strategyChooser // RunStrategy's adapter, reused across runs
	executing int             // processes that have yet to park or retire
	inChooser bool            // a chooser call is on the stack (panic attribution)
	parkedAcc []memory.Access
	isParked  []bool
	crashNow  []bool // crash grant pending for a parked process
	states    []ProcState

	// Per-run census, folded into stats when the run completes.
	decisions, selfGrants, crashes int64

	stats ExecStats
}

// Yield values other than a process id.
const (
	idle = -1 // parked or retired while others have yet to (run start only)
	done = -2 // every process retired: the run is over
)

// stopSignal unwinds a body parked mid-run when its coroutine is stopped.
type stopSignal struct{}

// PanicError is the value a run panics with when a process body panicked
// with anything but the executor's own unwinding signals: it names the
// process, carries the decisions made before the panic and the body's stack,
// and wraps the original value when that was an error.
type PanicError struct {
	// Proc is the process whose body panicked.
	Proc int
	// Value is the original panic value.
	Value any
	// Schedule is a copy of the decisions taken before the panic.
	Schedule []Choice
	// Stack is the panicking body's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: body of process %d panicked after %d decisions (schedule %v): %v",
		e.Proc, len(e.Schedule), e.Schedule, e.Value)
}

// Unwrap exposes an error panic value to errors.Is/As.
func (e *PanicError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// ExecStats is the executor's lifetime scheduling census: cumulative across
// every completed run, monotone, and purely advisory — the observability
// layer folds it on read; nothing consults it on a decision path. A run
// counts in plain integers and adds them here once, as its last act before
// returning, so whatever observes a finished run (a check closure, an obs
// snapshot) sees complete totals; the fields are atomics only because those
// readers live on other goroutines.
type ExecStats struct {
	// Runs counts Run calls.
	Runs atomic.Int64
	// Decisions counts scheduler decisions (== granted steps + crashes).
	Decisions atomic.Int64
	// SelfGrants counts decisions where the baton holder granted itself —
	// the zero-switch fast path; Handoffs counts the rest. A run's first
	// decider is always process n-1, so both are functions of the schedule.
	SelfGrants atomic.Int64
	Handoffs   atomic.Int64
	// CrashUnwinds counts crash grants (each unwinds one process body).
	CrashUnwinds atomic.Int64
}

// NewExecutor creates an executor for the environment and bodies.
// len(bodies) must equal env.N(). The executor owns n coroutines until Close
// is called.
func NewExecutor(env *memory.Env, bodies []func(p *memory.Proc)) *Executor {
	n := env.N()
	if len(bodies) != n {
		panic(fmt.Sprintf("sched: %d bodies for %d processes", len(bodies), n))
	}
	x := &Executor{
		env:       env,
		bodies:    bodies,
		n:         n,
		next:      make([]func() (int, bool), n),
		stop:      make([]func(), n),
		yield:     make([]func(int) bool, n),
		parkedAcc: make([]memory.Access, n),
		isParked:  make([]bool, n),
		crashNow:  make([]bool, n),
		states:    make([]ProcState, 0, n),
		result: Result{
			Finished: make([]bool, n),
			Crashed:  make([]bool, n),
			Steps:    make([]int64, n),
		},
	}
	for i := 0; i < n; i++ {
		x.next[i], x.stop[i] = iter.Pull(x.process(i))
	}
	return x
}

// process is coroutine i: one body execution per run, each followed by a
// yield at the retire point that lasts until the next run resumes it.
func (x *Executor) process(i int) iter.Seq[int] {
	return func(yield func(int) bool) {
		x.yield[i] = yield
		p := x.env.Proc(i)
		for x.runBody(i, p) && yield(x.retire()) {
		}
	}
}

// runBody runs process i's body to completion or through its unwinding. It
// reports false when the coroutine was stopped mid-body.
func (x *Executor) runBody(i int, p *memory.Proc) (live bool) {
	defer func() {
		r := recover()
		switch sig := r.(type) {
		case nil:
			x.res.Finished[i] = true
			live = true
		case crashSignal:
			// Crashed[i] was recorded by the decider that granted the crash.
			live = sig.proc == i
		case stopSignal:
			return
		}
		if live {
			return
		}
		if x.inChooser {
			panic(r) // the decision, not the body, panicked on this stack
		}
		panic(&PanicError{
			Proc:     i,
			Value:    r,
			Schedule: append([]Choice(nil), x.res.Schedule...),
			Stack:    debug.Stack(),
		})
	}()
	x.bodies[i](p)
	return
}

// Enter implements memory.Gate: park the calling process and, if it was the
// last one still executing, take the baton and decide the next step.
func (x *Executor) Enter(p *memory.Proc, a memory.Access) {
	i := p.ID()
	x.parkedAcc[i] = a
	x.isParked[i] = true
	to := idle
	if x.executing--; x.executing == 0 {
		to = x.decide(i)
	}
	if to != i && !x.yield[i](to) {
		panic(stopSignal{})
	}
	if x.crashNow[i] {
		x.crashNow[i] = false
		panic(crashSignal{proc: i})
	}
}

// retire is the finish-path twin of Enter's park: the process leaves the
// execution, and the baton falls to it if nobody else is executing.
func (x *Executor) retire() int {
	if x.executing--; x.executing == 0 {
		return x.decide(-1)
	}
	return idle
}

// decide runs one scheduler decision while holding the baton: pick a parked
// process, record the choice, and return its id — or done when nobody is
// parked. from is the deciding process (the one that just parked), or -1
// when the baton fell from a retiring process.
func (x *Executor) decide(from int) int {
	res := x.res
	states := x.states[:0]
	for i := 0; i < x.n; i++ {
		if x.isParked[i] {
			states = append(states, ProcState{ID: i, Next: x.parkedAcc[i]})
		}
	}
	if len(states) == 0 {
		return done
	}
	x.inChooser = true
	c := x.chooser.Choose(len(res.Schedule), states)
	if c.Proc < 0 || c.Proc >= x.n || !x.isParked[c.Proc] {
		panic(fmt.Sprintf("sched: chooser chose non-parked process %d from %v", c.Proc, states))
	}
	x.inChooser = false
	res.Schedule = append(res.Schedule, c)
	res.Accesses = append(res.Accesses, x.parkedAcc[c.Proc])
	x.isParked[c.Proc] = false
	x.executing = 1
	x.decisions++
	if c.Proc == from {
		x.selfGrants++
	}
	if c.Crash {
		x.crashes++
		res.Crashed[c.Proc] = true
		x.env.Proc(c.Proc).MarkCrashed()
		x.crashNow[c.Proc] = true
		return c.Proc
	}
	res.Steps[c.Proc]++
	x.env.Proc(c.Proc).SetPos(len(res.Schedule))
	return c.Proc
}

// resume switches to process i until it yields, and returns what it yielded.
func (x *Executor) resume(i int) int {
	to, ok := x.next[i]()
	if !ok {
		panic(fmt.Sprintf("sched: coroutine of process %d has exited", i))
	}
	return to
}

// Run performs one controlled execution under the chooser and returns its
// summary, valid until the executor's next run. The ProcState slice passed
// to the chooser is scratch reused across decisions; choosers must not
// retain it past the call.
func (x *Executor) Run(chooser Chooser) *Result {
	if x.closed {
		panic("sched: Run on closed Executor")
	}
	if x.res != nil {
		panic("sched: Run on an Executor whose last run was aborted by a panic")
	}
	n := x.n
	res := &x.result
	res.Schedule = res.Schedule[:0]
	res.Accesses = res.Accesses[:0]
	clear(res.Finished)
	clear(res.Crashed)
	clear(res.Steps)
	x.res = res
	x.chooser = chooser
	clear(x.isParked)
	x.executing = n
	x.decisions, x.selfGrants, x.crashes = 0, 0, 0
	x.env.SetGate(x)
	// Start every process; the last one to park or retire decides and names
	// the first grantee. From then on each resumption names the next.
	to := idle
	for i := 0; i < n; i++ {
		to = x.resume(i)
	}
	for to != done {
		to = x.resume(to)
	}
	x.release()
	x.stats.Runs.Add(1)
	x.stats.Decisions.Add(x.decisions)
	x.stats.SelfGrants.Add(x.selfGrants)
	x.stats.Handoffs.Add(x.decisions - x.selfGrants)
	x.stats.CrashUnwinds.Add(x.crashes)
	return res
}

// Stats returns the executor's lifetime scheduling census. The pointer is
// valid for the executor's lifetime; fields are read with their atomics.
func (x *Executor) Stats() *ExecStats { return &x.stats }

// release detaches the executor from the environment at the end of a run.
func (x *Executor) release() {
	x.env.SetGate(nil)
	x.res = nil
	x.chooser = nil
}

// RunStrategy is Run for id-only deciders.
func (x *Executor) RunStrategy(s Strategy) *Result {
	x.strat.s = s
	res := x.Run(&x.strat)
	x.strat.s = nil
	return res
}

// Close ends the executor's coroutines, unwinding any body an aborted run
// left parked, and detaches an aborted run from the environment. No run may
// be in progress. Close is idempotent.
func (x *Executor) Close() {
	if x.closed {
		return
	}
	x.closed = true
	for _, stop := range x.stop {
		stop()
	}
	if x.res != nil {
		x.release()
	}
}
