package sched

// The channel scheduler the package used before Executor moved onto
// coroutines, kept as the test-side reference: a dedicated scheduler loop,
// one goroutine per body, a park message and a grant channel per step. It shares no code with Executor, so
// agreeing with it run for run (protocol_test.go) pins the gate semantics —
// who is parked when, what a crash does, what a Result records.

import (
	"fmt"
	"sort"

	"repro/internal/memory"
)

type refMsg struct {
	finished bool
	proc     int
	acc      memory.Access
}

type refGate struct {
	toSched chan refMsg
	grants  []chan bool
}

func (g *refGate) Enter(p *memory.Proc, a memory.Access) {
	id := p.ID()
	g.toSched <- refMsg{proc: id, acc: a}
	if !<-g.grants[id] {
		panic(crashSignal{proc: id})
	}
}

// RefRunChooser is the reference implementation of Executor.Run, one-shot.
func RefRunChooser(env *memory.Env, chooser Chooser, bodies []func(p *memory.Proc)) *Result {
	n := env.N()
	g := &refGate{toSched: make(chan refMsg), grants: make([]chan bool, n)}
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
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() {
				if r := recover(); r != nil {
					if cs, ok := r.(crashSignal); !ok || cs.proc != i {
						panic(r)
					}
				}
				g.toSched <- refMsg{finished: true, proc: i}
			}()
			bodies[i](env.Proc(i))
		}(i)
	}

	executing := n // processes running local code (will park or finish)
	parked := map[int]memory.Access{}
	for {
		for ; executing > 0; executing-- {
			m := <-g.toSched
			if !m.finished {
				parked[m.proc] = m.acc
			} else if !res.Crashed[m.proc] {
				res.Finished[m.proc] = true
			}
		}
		if len(parked) == 0 {
			return res // every process finished or crashed
		}
		states := make([]ProcState, 0, len(parked))
		for id, acc := range parked {
			states = append(states, ProcState{ID: id, Next: acc})
		}
		sort.Slice(states, func(i, j int) bool { return states[i].ID < states[j].ID })
		c := chooser.Choose(len(res.Schedule), states)
		acc, ok := parked[c.Proc]
		if !ok {
			panic(fmt.Sprintf("sched: chooser chose non-parked process %d from %v", c.Proc, states))
		}
		res.Schedule = append(res.Schedule, c)
		res.Accesses = append(res.Accesses, acc)
		delete(parked, c.Proc)
		if c.Crash {
			res.Crashed[c.Proc] = true
			env.Proc(c.Proc).MarkCrashed()
		} else {
			res.Steps[c.Proc]++
			env.Proc(c.Proc).SetPos(len(res.Schedule))
		}
		g.grants[c.Proc] <- !c.Crash // the process executes or unwinds, then reports
		executing = 1
	}
}

// RefRun is the reference implementation of Run.
func RefRun(env *memory.Env, strategy Strategy, bodies []func(p *memory.Proc)) *Result {
	return RefRunChooser(env, &strategyChooser{s: strategy}, bodies)
}
