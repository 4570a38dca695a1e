// Package sched runs a set of process bodies under a fully controlled,
// sequentially consistent interleaving of their shared-memory accesses.
//
// The paper's progress conditions are schedule properties: obstruction
// freedom promises progress in the absence of *step contention* (no other
// process takes steps during my operation's execution interval), contention
// freedom in the absence of *interval contention* (no other operation's
// interval overlaps mine) [2, 6]. Reproducing the paper therefore needs a
// way to *produce* such schedules on demand, rather than hoping the OS
// scheduler does. This package provides it: each process body runs in its
// own goroutine, parks at its memory.Gate before every shared-memory
// access, and a single scheduler goroutine grants exactly one access at a
// time according to a pluggable decision procedure. Local computation
// between accesses is treated as instantaneous (it runs to the next park
// before the scheduler makes another choice), so an execution is fully
// determined by the sequence of scheduler choices — the property the
// explore package uses to enumerate interleavings exhaustively.
//
// Decisions can be made at two levels. A Strategy sees only the parked
// process ids — enough for the canned schedules (solo, round-robin,
// random, replay). A Chooser additionally sees, for every parked process,
// the memory.Access it is about to perform; the explore package's
// partial-order reduction is built on that metadata.
package sched

import (
	"fmt"
	"sort"

	"repro/internal/memory"
)

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
// so a caller that keeps any part of one past the next Run/RunCapture/
// RunReplay/RunStrategy call on the same executor must copy it first. Run
// and RunChooser (the spawn path) return a fresh Result per call.
type Result struct {
	// Schedule is the sequence of choices actually taken.
	Schedule []Choice
	// Parked[i] is the parked set the i-th choice was made from.
	Parked [][]int
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

type msgKind uint8

const (
	msgParked msgKind = iota
	msgFinished
)

type msg struct {
	kind msgKind
	proc int
	acc  memory.Access
}

// gate implements memory.Gate by parking the calling process until the
// scheduler grants it a step. A false grant means "crash": the gate panics
// with crashSignal, which the runner recovers.
type gate struct {
	toSched chan msg
	grants  []chan bool
}

type crashSignal struct{ proc int }

func (g *gate) Enter(p *memory.Proc, a memory.Access) {
	id := p.ID()
	g.toSched <- msg{kind: msgParked, proc: id, acc: a}
	if !<-g.grants[id] {
		panic(crashSignal{proc: id})
	}
}

// Run executes bodies[i] as process i of env under the given strategy and
// returns the execution summary. len(bodies) must equal env.N(). Run
// installs gates on all processes for the duration of the call and removes
// them before returning. It must not be invoked concurrently on the same
// env.
//
// Crashed processes stop taking steps permanently (their goroutine unwinds
// via a recovered panic), matching the crash model of Section 3.
func Run(env *memory.Env, strategy Strategy, bodies []func(p *memory.Proc)) *Result {
	return RunChooser(env, &strategyChooser{s: strategy}, bodies)
}

// RunChooser is Run for access-aware deciders: at every decision point the
// chooser sees the pending access of each parked process alongside its id.
func RunChooser(env *memory.Env, chooser Chooser, bodies []func(p *memory.Proc)) *Result {
	n := env.N()
	if len(bodies) != n {
		panic(fmt.Sprintf("sched: %d bodies for %d processes", len(bodies), n))
	}
	g := &gate{
		toSched: make(chan msg),
		grants:  make([]chan bool, n),
	}
	for i := range g.grants {
		g.grants[i] = make(chan bool)
	}
	env.SetGate(g)
	defer env.SetGate(nil)

	res := &Result{
		Finished: make([]bool, n),
		Crashed:  make([]bool, n),
		Steps:    make([]int64, n),
	}

	// Launch all process bodies. Each runs local code until it parks at the
	// gate or finishes.
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() {
				if r := recover(); r != nil {
					if cs, ok := r.(crashSignal); ok && cs.proc == i {
						g.toSched <- msg{kind: msgFinished, proc: i}
						return
					}
					panic(r)
				}
				g.toSched <- msg{kind: msgFinished, proc: i}
			}()
			bodies[i](env.Proc(i))
		}(i)
	}

	executing := n // processes running local code (will park or finish)
	parked := map[int]memory.Access{}
	done := map[int]bool{}
	for {
		for executing > 0 {
			m := <-g.toSched
			switch m.kind {
			case msgParked:
				parked[m.proc] = m.acc
			case msgFinished:
				done[m.proc] = true
				if !res.Crashed[m.proc] {
					res.Finished[m.proc] = true
				}
			}
			executing--
		}
		if len(parked) == 0 {
			break // every process finished or crashed
		}
		ids := sortedKeys(parked)
		states := make([]ProcState, len(ids))
		for i, id := range ids {
			states[i] = ProcState{ID: id, Next: parked[id]}
		}
		c := chooser.Choose(len(res.Schedule), states)
		acc, ok := parked[c.Proc]
		if !ok {
			panic(fmt.Sprintf("sched: chooser chose non-parked process %d from %v", c.Proc, ids))
		}
		res.Schedule = append(res.Schedule, c)
		res.Parked = append(res.Parked, ids)
		res.Accesses = append(res.Accesses, acc)
		delete(parked, c.Proc)
		if c.Crash {
			res.Crashed[c.Proc] = true
			env.Proc(c.Proc).MarkCrashed()
			g.grants[c.Proc] <- false // unwind the goroutine
			executing = 1             // it will report finished
			continue
		}
		res.Steps[c.Proc]++
		env.Proc(c.Proc).SetPos(len(res.Schedule))
		g.grants[c.Proc] <- true
		executing = 1 // granted process executes its access + local code
	}
	return res
}

func sortedKeys(m map[int]memory.Access) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
