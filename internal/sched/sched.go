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
// Decisions can be made at two levels. A Strategy sees only the parked
// process ids — enough for the canned schedules (solo, round-robin,
// random, replay). A Chooser additionally sees, for every parked process,
// the memory.Access it is about to perform; the engine's partial-order
// reduction is built on that metadata.
package sched

import "repro/internal/memory"

// Choice is one scheduler decision: which parked process to grant a step,
// or to crash instead of granting.
type Choice struct {
	Proc  int
	Crash bool
}

// Strategy picks the next scheduler choice. parked is the sorted set of
// process ids currently parked at the gate (len(parked) >= 1). step is the
// 0-based index of this decision in the execution.
type Strategy interface {
	Next(step int, parked []int) Choice
}

// ProcState describes one parked process at a decision point: its id and
// the shared-memory access it will perform if granted the next step.
type ProcState struct {
	ID   int
	Next memory.Access
}

// Chooser is the access-aware decision interface: it sees the pending
// access of every parked process, which is what independence-based pruning
// needs. parked is sorted by process id.
type Chooser interface {
	Choose(step int, parked []ProcState) Choice
}

// strategyChooser adapts a Strategy (ids only) to the Chooser interface.
// The id slice handed to the strategy is scratch reused across decisions;
// strategies must not retain it past the call.
type strategyChooser struct {
	s   Strategy
	ids []int
}

func (a *strategyChooser) Choose(step int, parked []ProcState) Choice {
	ids := a.ids[:0]
	for _, ps := range parked {
		ids = append(ids, ps.ID)
	}
	a.ids = ids
	return a.s.Next(step, ids)
}

// Result summarizes one controlled execution.
//
// A Result returned by an Executor is owned by that executor and valid only
// until its next run: the executor reuses the value and every slice in it,
// so a caller that keeps any part of one past the next Run/RunStrategy call
// on the same executor must copy it first. Run closes its one-shot
// executor before returning, so its Result is the caller's to keep.
type Result struct {
	// Schedule is the sequence of choices actually taken.
	Schedule []Choice
	// Accesses[i] is the access associated with the i-th choice: the access
	// performed, or, for a crash choice, the access the victim was about to
	// perform (which never executed). Deciders that need the pending access
	// of every parked process (not just the chosen one) implement Chooser,
	// which sees them before each decision.
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

// Run executes bodies[i] as process i of env under the given strategy and
// returns the execution summary. len(bodies) must equal env.N(). It is a
// one-shot Executor — constructed, run once and closed — so it installs the
// gate for the duration of the call, leaves no goroutine behind, and
// returns a Result nobody else will refill. It must not be invoked
// concurrently on the same env.
//
// Crashed processes stop taking steps permanently (their body unwinds via a
// recovered panic), matching the crash model of Section 3.
func Run(env *memory.Env, strategy Strategy, bodies []func(p *memory.Proc)) *Result {
	x := NewExecutor(env, bodies)
	defer x.Close()
	return x.RunStrategy(strategy)
}
