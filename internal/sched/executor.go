package sched

import (
	"errors"
	"fmt"
	"iter"
	"runtime"
	"runtime/debug"
	"sync/atomic"

	"repro/internal/memory"
)

// Executor runs controlled executions of one set of process bodies over one
// environment. It is the package's only gate implementation: Run constructs
// one, runs it once and closes it; the engine keeps one per worker and
// re-runs it hundreds of thousands of times.
//
// Shape: n+1 parties and n pull-coroutines. Every process body lives in one
// iter.Pull coroutine created by NewExecutor; the goroutine that calls Run
// is the driver, party n. An iter.Pull coroutine's next and yield are both
// one runtime switch on that coroutine, which swaps the caller with
// whichever goroutine sits in it, so any party may sit in any coroutine:
// where[p] is the coroutine party p sits in (-1 while it runs), and
// inNext[k] tells whether coroutine k's occupant sits in next[k] (wake it
// with yield[k]) or in yield[k] or its unstarted entry (wake it with
// next[k]). A transfer to party `to` is that one call on coroutine
// where[to], and leaves the caller sitting there. Exactly one party runs
// at a time, so the executor is single-threaded by construction: the
// decision state is plain memory, and the switch is the happens-before
// edge between consecutive owners (iter.Pull pairs it with race-detector
// annotations, so this holds under -race too, whichever goroutine makes
// the call). No channel, mutex or atomic sits on the step path.
//
// Baton discipline: the driver switches to process 0. During start-up each
// process runs local code to its first shared-memory access and parks in
// Enter — or retires — and switches straight to the next process; the last
// one decides. From then on the process that parks or retires last runs
// the decision on its own stack — asks the chooser, records the choice.
// The parked set is one word that Enter sets a bit in and a grant clears,
// so a decision builds nothing. A self-grant simply returns from Enter and
// costs no switch, which is what makes solo tails and replayed prefixes
// cheap; any other grant is one switch from the decider to the grantee — a
// register swap that never enters the Go scheduler (no gopark/ready, no run
// queue, no wake-up of an idle P). When nobody is left the last retiree
// switches to the driver. A run therefore costs n + handoffs + 1 switches.
// A crash grant is a handoff with a per-process flag set; the victim sees
// it on resume and panics crashSignal, which unwinds its body and retires
// it.
//
// Failures: a panic in a process body (other than a crash unwind), a panic
// in the chooser, or a runtime.Goexit in either never leaves its
// coroutine, whose occupant may be another process. The coroutine records
// what to raise, switches to the driver and waits there for Close; Run
// then raises it on its caller's goroutine — a body failure as a
// *PanicError naming the process (a Goexit as errGoexit), a chooser panic
// unwrapped, a chooser Goexit as runtime.Goexit. The run is aborted: the
// executor refuses further runs and must be closed.
//
// Lifetime: between runs every process waits at its retire point in some
// coroutine (or has not started). Close sets closed and the crash flag of
// every process, then switches to each process whose coroutine is live.
// The woken process unwinds — through its crash signal if it was parked
// mid-body — and its coroutine ends, which wakes that coroutine's
// occupant; that party ends its own coroutine in turn. The cascade stops
// at the driver: each party sits in at most one coroutine and each live
// coroutine holds exactly one party, so "p → the occupant of p's
// coroutine" never repeats a party; the process Close switched to has no
// predecessor, since it is running; and the driver, which owns no
// coroutine, is the only party the chain can end at. Every party on the
// chain has ended when Close resumes, and every other coroutine keeps its
// occupant, so Close's next switch finds valid state. A body that called
// runtime.Goexit cannot stop its goroutine's Goexit, and iter.Pull would
// replay it on whoever sits in that coroutine's next; the coroutine turns
// it into a goexitSignal panic instead, which a process on the chain
// absorbs as its own end and closeProcess absorbs on the driver. No
// goroutine outlives Close.
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

	// The coroutines: next[k] and yield[k] are coroutine k's two halves
	// (yield is published when the coroutine first runs), where[p] is the
	// coroutine party p sits in — -1 while it runs or once its own
	// coroutine has ended — and inNext[k] tells which half wakes coroutine
	// k's occupant. where has n+1 entries, the driver's last.
	next     []func() (struct{}, bool)
	yield    []func(struct{}) bool
	where    []int
	inNext   []bool
	switches int64 // coroutine switches since construction (read by tests)

	// Per-run decision state, owned by whoever is running. res points at
	// result for the duration of a run — and stays set after an aborted one
	// — and is nil otherwise.
	chooser   Chooser
	res       *Result
	result    Result // the one Result every run refills
	executing int    // processes that have yet to park or retire
	inChooser bool   // a chooser call is on the stack (panic attribution)
	parked    ProcSet
	parkedAcc []memory.Access // pending access per process, valid while parked
	crashNow  []bool          // crash grant (or Close) pending for a parked process
	failure   any             // what an aborted run raises on the driver

	// Per-run census, folded into stats when the run completes.
	decisions, selfGrants, crashes int64

	stats ExecStats
}

// goexitSignal ends the coroutine of a process whose body or chooser
// called runtime.Goexit, in place of the Goexit iter.Pull would replay on
// the coroutine's occupant; as a failure it tells Run to call
// runtime.Goexit.
type goexitSignal struct{}

// errGoexit is the Value of the PanicError for a body that called
// runtime.Goexit (t.FailNow, t.SkipNow): it neither returned nor panicked.
var errGoexit = errors.New("body called runtime.Goexit")

// PanicError is the value a run panics with when a process body panicked
// with anything but the executor's own unwinding signals, or called
// runtime.Goexit: it names the process, carries the decisions made before
// the panic and the body's stack, and wraps the original value when that
// was an error.
type PanicError struct {
	// Proc is the process whose body panicked.
	Proc int
	// Value is the original panic value (an error naming runtime.Goexit
	// for a body that called it).
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
	// the zero-switch fast path; Handoffs counts the rest, one coroutine
	// switch each. A run's first decider is always process n-1, so both
	// are functions of the schedule.
	SelfGrants atomic.Int64
	Handoffs   atomic.Int64
	// CrashUnwinds counts crash grants (each unwinds one process body).
	CrashUnwinds atomic.Int64
}

// NewExecutor creates an executor for the environment and bodies.
// len(bodies) must equal env.N(), and env.N() must not exceed MaxProcs: a
// larger environment panics with the CheckProcs error. The executor owns n
// coroutines until Close is called.
func NewExecutor(env *memory.Env, bodies []func(p *memory.Proc)) *Executor {
	n := env.N()
	if err := CheckProcs(n); err != nil {
		panic(err)
	}
	if len(bodies) != n {
		panic(fmt.Sprintf("sched: %d bodies for %d processes", len(bodies), n))
	}
	x := &Executor{
		env:       env,
		bodies:    bodies,
		n:         n,
		next:      make([]func() (struct{}, bool), n),
		yield:     make([]func(struct{}) bool, n),
		where:     make([]int, n+1),
		inNext:    make([]bool, n),
		parkedAcc: make([]memory.Access, n),
		crashNow:  make([]bool, n),
		result: Result{
			Finished: make([]bool, n),
			Crashed:  make([]bool, n),
			Steps:    make([]int64, n),
		},
	}
	for i := 0; i < n; i++ {
		x.next[i], _ = iter.Pull(x.process(i))
		x.where[i] = i
	}
	x.where[n] = -1
	return x
}

// process is coroutine i: one body execution per run, each followed by a
// wait at the retire point that lasts until the next run switches to it.
// It ends only on Close, or when a run fails on its stack (see end).
func (x *Executor) process(i int) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		x.yield[i] = yield
		defer x.end(i)
		p := x.env.Proc(i)
		for !x.closed {
			x.runBody(i, p)
			if !x.closed {
				x.retire(i)
			}
		}
	}
}

// runBody runs process i's body to completion or through a crash unwind —
// Close's included. Any other panic goes on to end.
func (x *Executor) runBody(i int, p *memory.Proc) {
	defer func() {
		if r := recover(); r != nil {
			if sig, ok := r.(crashSignal); !ok || sig.proc != i {
				panic(r)
			}
			// Crashed[i] was recorded by the decider that granted the crash.
		}
	}()
	x.bodies[i](p)
	x.res.Finished[i] = true
}

// end is coroutine i's last act. On Close it just marks the process gone.
// Otherwise the run failed on this stack: a panic, or — since the loop in
// process only ends on Close — a runtime.Goexit. end records what Run is to
// raise, switches to the driver and waits there for Close; a Goexit then
// ends the coroutine with goexitSignal.
func (x *Executor) end(i int) {
	r := recover()
	goexit := !x.closed && r == nil
	if !x.closed {
		switch {
		case x.inChooser && r == nil:
			x.failure = goexitSignal{}
		case x.inChooser:
			x.failure = r // the decision, not the body, failed on this stack
		default:
			value := r
			if r == nil {
				value = errGoexit
			}
			x.failure = &PanicError{
				Proc:     i,
				Value:    value,
				Schedule: append([]Choice(nil), x.res.Schedule...),
				Stack:    debug.Stack(),
			}
		}
		x.transfer(i, x.n)
	}
	x.where[i] = -1
	if goexit {
		panic(goexitSignal{})
	}
}

// transfer switches from the running party from to party to: one switch on
// the coroutine to sits in, where from then sits until a party switches
// back to it or the coroutine ends.
func (x *Executor) transfer(from, to int) {
	k := x.where[to]
	x.where[to], x.where[from] = -1, k
	x.switches++
	if x.inNext[k] {
		x.inNext[k] = false
		x.yield[k](struct{}{})
	} else {
		x.inNext[k] = true
		x.next[k]()
	}
}

// Enter implements memory.Gate: park the calling process and hand the baton
// on — to the next process during start-up, else, as the last one
// executing, to whoever the decision grants.
func (x *Executor) Enter(p *memory.Proc, a memory.Access) {
	i := p.ID()
	x.parkedAcc[i] = a
	x.parked |= 1 << uint(i)
	to := i + 1
	if x.executing--; x.executing == 0 {
		to = x.decide(i)
	}
	if to != i {
		x.transfer(i, to)
	}
	if x.crashNow[i] {
		x.crashNow[i] = false
		panic(crashSignal{proc: i})
	}
}

// retire is the finish-path twin of Enter's park: process i leaves the
// execution, hands the baton on and waits at its retire point.
func (x *Executor) retire(i int) {
	to := i + 1
	if x.executing--; x.executing == 0 {
		to = x.decide(-1)
	}
	x.transfer(i, to)
}

// decide runs one scheduler decision while holding the baton: pick a parked
// process, record the choice, and return its id — or the driver's, n, when
// nobody is parked. from is the deciding process (the one that just
// parked), or -1 when the baton fell from a retiring process.
func (x *Executor) decide(from int) int {
	if x.parked == 0 {
		return x.n
	}
	res := x.res
	x.inChooser = true
	c := x.chooser.Choose(len(res.Schedule), x.parked, x.parkedAcc)
	if !x.parked.Has(c.Proc) {
		panic(fmt.Sprintf("sched: chooser chose non-parked process %d from parked set %b", c.Proc, x.parked))
	}
	x.inChooser = false
	res.Schedule = append(res.Schedule, c)
	res.Accesses = append(res.Accesses, x.parkedAcc[c.Proc])
	x.parked &^= 1 << uint(c.Proc)
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

// Run performs one controlled execution under the chooser and returns its
// summary, valid until the executor's next run.
func (x *Executor) Run(chooser Chooser) *Result {
	if x.closed {
		panic("sched: Run on closed Executor")
	}
	if x.res != nil {
		panic("sched: Run on an Executor whose last run was aborted by a panic")
	}
	res := &x.result
	res.Schedule = res.Schedule[:0]
	res.Accesses = res.Accesses[:0]
	clear(res.Finished)
	clear(res.Crashed)
	clear(res.Steps)
	x.res = res
	x.chooser = chooser
	x.parked = 0
	x.executing = x.n
	x.decisions, x.selfGrants, x.crashes = 0, 0, 0
	x.env.SetGate(x)
	// Start process 0; the baton comes back when nobody is left, or when
	// the run fails.
	x.transfer(x.n, 0)
	if f := x.failure; f != nil {
		if _, ok := f.(goexitSignal); ok {
			runtime.Goexit()
		}
		panic(f)
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

// RunStrategy is Run under its former name; benchmark/ is its one caller.
func (x *Executor) RunStrategy(c Chooser) *Result { return x.Run(c) }

// Close ends the executor's coroutines, unwinding any body an aborted run
// left parked, and detaches an aborted run from the environment. No run may
// be in progress. Close is idempotent.
func (x *Executor) Close() {
	if x.closed {
		return
	}
	x.closed = true
	// Every flag before the first switch: a cascade wakes processes in any
	// order.
	for i := range x.n {
		x.crashNow[i] = true
	}
	for i := range x.n {
		if x.where[i] >= 0 {
			x.closeProcess(i)
		}
	}
	if x.res != nil {
		x.release()
	}
}

// closeProcess switches to process i and returns when the cascade its end
// starts reaches the driver. A goexitSignal raised into the driver's
// switch is that cascade's end too.
func (x *Executor) closeProcess(i int) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(goexitSignal); !ok {
				panic(r)
			}
		}
	}()
	x.transfer(x.n, i)
}
