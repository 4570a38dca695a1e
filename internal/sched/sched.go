// Package sched runs a set of process bodies under a fully controlled,
// sequentially consistent interleaving of their shared-memory accesses.
//
// The paper's progress conditions are schedule properties: obstruction
// freedom promises progress in the absence of *step contention* (no other
// process takes steps during my operation's execution interval), contention
// freedom in the absence of *interval contention* (no other operation's
// interval overlaps mine) [2, 6]. Reproducing the paper therefore needs a
// way to *produce* such schedules on demand, rather than hoping the OS
// scheduler does. This package provides it in the model the paper (and the
// stochastic-scheduler analyses that followed it) reasons in: at each
// decision exactly one process takes exactly one step. Each process body
// runs in its own coroutine, parks at its memory.Gate before every
// shared-memory access, and a pluggable decision procedure grants exactly
// one access at a time. Local computation between accesses is treated as
// instantaneous (it runs to the next park before another choice is made),
// so an execution is fully determined by the sequence of scheduler choices
// — the property the engine uses to enumerate interleavings exhaustively.
//
// There is one gate protocol, Executor — a driver goroutine, one iter.Pull
// coroutine per process and baton-passed decisions; its doc comment has
// the protocol and its costs. Run is its one-shot form.
//
// Decisions go through one interface, Chooser, which sees the parked set as
// one word (ProcSet: bit p set means process p is parked) and every parked
// process's pending access. The canned schedules and the samplers ignore
// the accesses; the engine's partial-order reduction is built on them. A
// word holds MaxProcs processes, which bounds every gated execution.
package sched

import (
	"fmt"
	"math/bits"

	"repro/internal/memory"
)

// MaxProcs is the most processes a gated execution can hold: the parked
// set is one 64-bit word.
const MaxProcs = 64

// ErrTooManyProcs is wrapped by the rejection of a gated execution over
// more than MaxProcs processes.
var ErrTooManyProcs = fmt.Errorf("sched: a gated execution holds at most %d processes (the parked set is one 64-bit word)", MaxProcs)

// CheckProcs reports whether n processes fit in a gated execution: nil, or
// an error wrapping ErrTooManyProcs that names n.
func CheckProcs(n int) error {
	if n > MaxProcs {
		return fmt.Errorf("%w: got %d", ErrTooManyProcs, n)
	}
	return nil
}

// Choice is one scheduler decision: which parked process to grant a step,
// or to crash instead of granting.
type Choice struct {
	Proc  int
	Crash bool
}

// ProcSet is a set of process ids, one bit per id: bit p set means process
// p is a member. Counting members "up" means in increasing id order.
type ProcSet uint64

// Len returns the number of members.
func (s ProcSet) Len() int { return bits.OnesCount64(uint64(s)) }

// Has reports whether p is a member; ids outside [0, MaxProcs) never are.
func (s ProcSet) Has(p int) bool { return uint(p) < MaxProcs && s&(1<<uint(p)) != 0 }

// Min returns the smallest member of a non-empty set.
func (s ProcSet) Min() int { return bits.TrailingZeros64(uint64(s)) }

// Nth returns the k-th member counting up from 0; 0 <= k < s.Len().
func (s ProcSet) Nth(k int) int {
	for ; k > 0; k-- {
		s &= s - 1
	}
	return s.Min()
}

// Chooser picks the next scheduler choice. step is the 0-based index of
// this decision in the execution; parked is the set of processes parked at
// the gate (never empty); next[p] is the shared-memory access parked
// process p performs if granted (entries of unparked processes are stale).
// next is the executor's own array: a chooser must neither modify nor
// retain it past the call.
type Chooser interface {
	Choose(step int, parked ProcSet, next []memory.Access) Choice
}

// Func adapts a plain function to a Chooser.
type Func func(step int, parked ProcSet, next []memory.Access) Choice

// Choose implements Chooser.
func (f Func) Choose(step int, parked ProcSet, next []memory.Access) Choice {
	return f(step, parked, next)
}

// Result summarizes one controlled execution.
//
// A Result returned by an Executor is owned by that executor and valid only
// until its next run: the executor reuses the value and every slice in it,
// so a caller that keeps any part of one past the next run
// on the same executor must copy it first. Run closes its one-shot
// executor before returning, so its Result is the caller's to keep.
type Result struct {
	// Schedule is the sequence of choices actually taken.
	Schedule []Choice
	// Accesses[i] is the access associated with the i-th choice: the access
	// performed, or, for a crash choice, the access the victim was about to
	// perform (which never executed). The pending access of every parked
	// process (not just the chosen one) is what a Chooser sees before each
	// decision.
	Accesses []memory.Access
	// Finished[p] reports whether process p ran to completion.
	Finished []bool
	// Crashed[p] reports whether process p was crashed by the scheduler.
	Crashed []bool
	// Steps[p] is the number of shared-memory accesses granted to p.
	Steps []int64
}

// crashSignal unwinds the body of a process the scheduler crashed.
type crashSignal struct{ proc int }

// Run executes bodies[i] as process i of env under the given chooser and
// returns the execution summary. len(bodies) must equal env.N(). It is a
// one-shot Executor — constructed, run once and closed — so it installs the
// gate for the duration of the call, leaves no goroutine behind, and
// returns a Result nobody else will refill. It must not be invoked
// concurrently on the same env.
//
// Crashed processes stop taking steps permanently (their body unwinds via a
// recovered panic), matching the crash model of Section 3.
func Run(env *memory.Env, c Chooser, bodies []func(p *memory.Proc)) *Result {
	x := NewExecutor(env, bodies)
	defer x.Close()
	return x.Run(c)
}
