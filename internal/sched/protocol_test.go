package sched_test

// Protocol tests for the coroutine executor: differential agreement with the
// reference channel scheduler over the scenario registry, allocation-free
// runs, leak-free Close in every state, and body panics that come out as
// named errors. They live in the external test package because the registry
// imports sched.

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/memory"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// canonical renumbers access object identities by first appearance: the ids
// are drawn from a process-wide counter, so two builds of one system agree
// only up to that renaming.
func canonical(accs []memory.Access) []memory.Access {
	ids := map[uint64]uint64{}
	out := make([]memory.Access, len(accs))
	for i, a := range accs {
		if _, ok := ids[a.Obj]; !ok {
			ids[a.Obj] = uint64(len(ids) + 1)
		}
		a.Obj = ids[a.Obj]
		out[i] = a
	}
	return out
}

// TestExecutorMatchesReferenceRegistry runs every registered scenario at
// n=2,3 under seeded random schedules (with crash injection where the
// scenario supports it) through the executor — reused across seeds when the
// harness can reset, one-shot otherwise — and through the reference channel
// scheduler on a fresh build, and requires identical results and terminal
// fingerprints.
func TestExecutorMatchesReferenceRegistry(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 8
	}
	for _, sc := range scenario.Registered() {
		for _, n := range []int{2, 3} {
			n = sc.Procs(n)
			crashes := sc.Params.Crashes
			h, _ := sc.Build(n, scenario.Options{Crashes: crashes})
			strategy := func(seed int64) sched.Chooser {
				if crashes {
					return sched.NewRandomCrash(seed, 0.1)
				}
				return sched.NewRandom(seed)
			}
			env, bodies, _, reset := h()
			var x *sched.Executor
			if reset != nil {
				x = sched.NewExecutor(env, bodies)
			}
			for seed := int64(0); seed < seeds; seed++ {
				var got *sched.Result
				if x != nil {
					got = x.Run(strategy(seed))
				} else {
					env, bodies, _, _ = h()
					got = sched.Run(env, strategy(seed), bodies)
				}
				gotFP, gotOK := env.Fingerprint()
				if x != nil {
					env.Reset()
					reset()
				}

				refEnv, refBodies, _, _ := h()
				want := sched.RefRun(refEnv, strategy(seed), refBodies)
				wantFP, wantOK := refEnv.Fingerprint()

				if !reflect.DeepEqual(got.Schedule, want.Schedule) {
					t.Fatalf("%s n=%d seed %d: schedule %v, reference %v", sc.Name, n, seed, got.Schedule, want.Schedule)
				}
				if !reflect.DeepEqual(canonical(got.Accesses), canonical(want.Accesses)) {
					t.Fatalf("%s n=%d seed %d: accesses %v, reference %v", sc.Name, n, seed, got.Accesses, want.Accesses)
				}
				if !reflect.DeepEqual(got.Finished, want.Finished) || !reflect.DeepEqual(got.Crashed, want.Crashed) ||
					!reflect.DeepEqual(got.Steps, want.Steps) {
					t.Fatalf("%s n=%d seed %d: finished/crashed/steps %v %v %v, reference %v %v %v", sc.Name, n, seed,
						got.Finished, got.Crashed, got.Steps, want.Finished, want.Crashed, want.Steps)
				}
				if gotFP != wantFP || gotOK != wantOK {
					t.Fatalf("%s n=%d seed %d: terminal fingerprint %v/%v, reference %v/%v", sc.Name, n, seed, gotFP, gotOK, wantFP, wantOK)
				}
			}
			if x != nil {
				x.Close()
			}
		}
	}
}

// counters is a resettable n-process system: each body increments a shared
// register twice, non-atomically.
func counters(n int) (*memory.Env, []func(p *memory.Proc)) {
	env := memory.NewEnv(n)
	r := memory.NewIntReg(0)
	env.Register(r)
	inc := func(p *memory.Proc) {
		for k := 0; k < 2; k++ {
			r.Write(p, r.Read(p)+1)
		}
	}
	bodies := make([]func(p *memory.Proc), n)
	for i := range bodies {
		bodies[i] = inc
	}
	return env, bodies
}

// TestExecutorRunAllocFree: a run on a warmed executor — self-grants,
// handoffs and crash unwinds included — allocates nothing.
func TestExecutorRunAllocFree(t *testing.T) {
	env, bodies := counters(3)
	x := sched.NewExecutor(env, bodies)
	defer x.Close()
	rr := sched.NewRoundRobin()
	strategies := map[string]sched.Chooser{
		"solo":        sched.NewSolo(0, 1, 2),
		"round-robin": sched.Func(rr.Choose),
		"crash": sched.Func(func(step int, parked sched.ProcSet, _ []memory.Access) sched.Choice {
			return sched.Choice{Proc: parked.Nth(parked.Len() - 1), Crash: step%3 == 2}
		}),
	}
	for name, s := range strategies {
		x.Run(s) // grow the Result buffers
		env.Reset()
		if avg := testing.AllocsPerRun(50, func() {
			x.Run(s)
			env.Reset()
		}); avg != 0 {
			t.Errorf("%s: a run allocated %.1f objects, want 0", name, avg)
		}
	}
}

// panicAt returns the counters system over n processes with process 1
// panicking (with err) at its third access.
func panicAt(n int, err error) (*memory.Env, []func(p *memory.Proc)) {
	env, bodies := counters(n)
	r := memory.NewIntReg(0)
	bodies[1] = func(p *memory.Proc) {
		r.Read(p)
		r.Read(p)
		panic(err)
	}
	return env, bodies
}

// runPanics runs f and returns the value it panicked with (nil if none).
func runPanics(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// goexitAt returns the counters system over n processes with process k
// calling runtime.Goexit — as t.FailNow does — after its first `after`
// accesses.
func goexitAt(n, k, after int) (*memory.Env, []func(p *memory.Proc)) {
	env, bodies := counters(n)
	r := memory.NewIntReg(0)
	bodies[k] = func(p *memory.Proc) {
		for range after {
			r.Read(p)
		}
		runtime.Goexit()
	}
	return env, bodies
}

// permuted reports whether some process of x waits in a coroutine other
// than its own.
func permuted(x *sched.Executor, n int) bool {
	for p := range n {
		if w := x.Where(p); w >= 0 && w != p {
			return true
		}
	}
	return false
}

// TestExecutorCloseLeavesNoGoroutine: Close ends every coroutine whatever
// state the executor is in — never run, between runs, and after a run a
// panic aborted with the other bodies parked mid-execution, including
// states where processes wait in each other's coroutines — and a closed
// executor refuses to run.
func TestExecutorCloseLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	check := func(state string, env *memory.Env, x *sched.Executor) {
		t.Helper()
		if got := runtime.NumGoroutine(); got <= base {
			t.Fatalf("%s: %d goroutines before Close against a baseline of %d: coroutines are not being counted", state, got, base)
		}
		steps := env.TotalSteps()
		x.Close()
		x.Close() // idempotent
		if got := runtime.NumGoroutine(); got > base {
			t.Fatalf("%s: %d goroutines after Close, want the baseline %d", state, got, base)
		}
		if got := env.TotalSteps(); got != steps {
			t.Fatalf("%s: Close let the bodies take %d more steps, want none", state, got-steps)
		}
		if r := runPanics(func() { x.Run(sched.NewRoundRobin()) }); r == nil || !strings.Contains(r.(string), "closed Executor") {
			t.Fatalf("%s: Run on a closed executor panicked with %v, want the closed-Executor panic", state, r)
		}
	}

	env, bodies := counters(3)
	check("idle", env, sched.NewExecutor(env, bodies))

	env, bodies = counters(3)
	x := sched.NewExecutor(env, bodies)
	x.Run(sched.NewRoundRobin())
	check("after a completed run", env, x)

	env, bodies = panicAt(3, errors.New("boom"))
	x = sched.NewExecutor(env, bodies)
	if r := runPanics(func() { x.Run(sched.NewRoundRobin()) }); r == nil {
		t.Fatal("the body's panic did not propagate out of the run")
	}
	check("after an aborted run", env, x)
	// Close detached the aborted run: the environment is usable again.
	if x2 := sched.NewExecutor(env, bodies); runPanics(func() { x2.Run(sched.NewSolo(0, 2, 1)) }) == nil {
		t.Fatal("rerun on the same environment did not reach the panicking body")
	} else {
		x2.Close()
	}

	// Five processes, whose coroutines the runs leave held by other
	// processes: a completed round-robin run, a body panic mid-run, a
	// chooser panic and a body's runtime.Goexit.
	requirePermuted := func(state string, x *sched.Executor) {
		t.Helper()
		if !permuted(x, 5) {
			t.Fatalf("%s: every process waits in its own coroutine; the state does not exercise migrated holders", state)
		}
	}
	env, bodies = counters(5)
	x = sched.NewExecutor(env, bodies)
	x.Run(sched.NewRoundRobin())
	requirePermuted("after a round-robin run at n=5", x)
	check("after a round-robin run at n=5", env, x)

	env, bodies = panicAt(5, errors.New("boom"))
	x = sched.NewExecutor(env, bodies)
	if _, ok := runPanics(func() { x.Run(sched.NewRoundRobin()) }).(*sched.PanicError); !ok {
		t.Fatal("n=5: the body's panic did not propagate out of the run as a *PanicError")
	}
	requirePermuted("after a body panic at n=5", x)
	check("after a body panic at n=5", env, x)

	env, bodies = counters(5)
	x = sched.NewExecutor(env, bodies)
	rr := sched.NewRoundRobin()
	if r := runPanics(func() {
		x.Run(sched.Func(func(step int, parked sched.ProcSet, next []memory.Access) sched.Choice {
			if step == 12 {
				panic("chooser bug")
			}
			return rr.Choose(step, parked, next)
		}))
	}); r != "chooser bug" {
		t.Fatalf("n=5: run panicked with %v, want the chooser's own value", r)
	}
	requirePermuted("after a chooser panic at n=5", x)
	check("after a chooser panic at n=5", env, x)

	env, bodies = goexitAt(5, 2, 1)
	x = sched.NewExecutor(env, bodies)
	if _, ok := runPanics(func() { x.Run(sched.NewRoundRobin()) }).(*sched.PanicError); !ok {
		t.Fatal("n=5: the body's runtime.Goexit did not come out of the run as a *PanicError")
	}
	requirePermuted("after a body Goexit at n=5", x)
	check("after a body Goexit at n=5", env, x)

	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines at the end, want the baseline %d", got, base)
	}
}

// TestExecutorBodyGoexitIsNamed: a body that calls runtime.Goexit (as
// t.FailNow does) aborts the run with a *PanicError naming the process, on
// the caller's goroutine, which survives; the executor then refuses further
// runs, and Close leaves no goroutine. The cases put the Goexit before the
// first park and mid-run, with the coroutine that ends held by the driver
// (n=1) or by other processes.
func TestExecutorBodyGoexitIsNamed(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, c := range []struct{ n, k, after int }{
		{1, 0, 0}, {1, 0, 2}, {2, 1, 0}, {3, 0, 0}, {3, 2, 0}, {3, 1, 2}, {5, 3, 1}, {5, 0, 3},
	} {
		env, bodies := goexitAt(c.n, c.k, c.after)
		x := sched.NewExecutor(env, bodies)
		r := runPanics(func() { x.Run(sched.NewRoundRobin()) })
		pe, ok := r.(*sched.PanicError)
		if !ok {
			t.Fatalf("%+v: run panicked with %T %v, want *sched.PanicError", c, r, r)
		}
		if msg := pe.Error(); pe.Proc != c.k || !strings.Contains(msg, fmt.Sprintf("process %d", c.k)) || !strings.Contains(msg, "Goexit") {
			t.Fatalf("%+v: PanicError for process %d reads %q; want it to name process %d and runtime.Goexit", c, pe.Proc, msg, c.k)
		}
		if !strings.Contains(string(pe.Stack), "goexitAt") {
			t.Fatalf("%+v: stack does not reach the exiting body:\n%s", c, pe.Stack)
		}
		if r := runPanics(func() { x.Run(sched.NewRoundRobin()) }); r == nil || !strings.Contains(r.(string), "aborted") {
			t.Fatalf("%+v: run after the aborted run panicked with %v, want the aborted-run panic", c, r)
		}
		x.Close()
		x.Close()
		if got := runtime.NumGoroutine(); got > base {
			t.Fatalf("%+v: %d goroutines after Close, want the baseline %d", c, got, base)
		}
	}
}

// TestExecutorChooserGoexitEndsTheCaller: a chooser that calls
// runtime.Goexit ends Run's caller, as if it had run there, and Close still
// ends every coroutine.
func TestExecutorChooserGoexitEndsTheCaller(t *testing.T) {
	env, bodies := counters(3)
	x := sched.NewExecutor(env, bodies)
	outcome, proceed := make(chan string), make(chan struct{})
	go func() {
		returned := false
		defer func() {
			switch r := recover(); {
			case r != nil:
				outcome <- fmt.Sprintf("panicked with %v", r)
			case returned:
				outcome <- "returned"
			default:
				outcome <- ""
			}
			<-proceed // stay counted until the goroutines are
		}()
		x.Run(sched.Func(func(step int, parked sched.ProcSet, _ []memory.Access) sched.Choice {
			if step == 4 {
				runtime.Goexit()
			}
			return sched.Choice{Proc: parked.Min()}
		}))
		returned = true
	}()
	if got := <-outcome; got != "" {
		t.Fatalf("Run %s after its chooser called runtime.Goexit; want its caller to exit", got)
	}
	before := runtime.NumGoroutine()
	x.Close()
	x.Close()
	after := runtime.NumGoroutine()
	close(proceed)
	if after > before-3 {
		t.Fatalf("Close left %d of the executor's 3 coroutines", after-(before-3))
	}
}

// TestExecutorOneSwitchPerHandoff pins the protocol's cost in coroutine
// switches: a run makes n + handoffs + 1 — one to start process 0, one per
// process launching the next at start-up, one per handoff and one back to
// the driver — where driving every handoff through the driver made
// 2n + 2·handoffs + 1. The schedules are BenchmarkExecutorDecision's, plus
// start-ups where bodies retire without parking.
func TestExecutorOneSwitchPerHandoff(t *testing.T) {
	const reads = 64
	system := func(n int, idle ...int) (*memory.Env, []func(p *memory.Proc)) {
		env := memory.NewEnv(n)
		bodies := make([]func(p *memory.Proc), n)
		for i := range bodies {
			r := memory.NewIntReg(0)
			bodies[i] = func(p *memory.Proc) {
				for k := 0; k < reads; k++ {
					r.Read(p)
				}
			}
		}
		for _, i := range idle {
			bodies[i] = func(*memory.Proc) {}
		}
		return env, bodies
	}
	lowest := sched.Func(func(_ int, parked sched.ProcSet, _ []memory.Access) sched.Choice {
		return sched.Choice{Proc: parked.Min()}
	})
	var pct sched.PCT
	for _, c := range []struct {
		name    string
		n       int
		idle    []int
		chooser func(run int) sched.Chooser
	}{
		{"self", 4, nil, func(int) sched.Chooser { return lowest }},
		{"handoff", 4, nil, func(int) sched.Chooser { return sched.NewRoundRobin() }},
		{"crash", 4, nil, func(int) sched.Chooser {
			return sched.Func(func(_ int, parked sched.ProcSet, _ []memory.Access) sched.Choice {
				return sched.Choice{Proc: parked.Min(), Crash: true}
			})
		}},
		{"pct-n8", 8, nil, func(run int) sched.Chooser { return pct.Reset(int64(run), 8, 8*reads, 3) }},
		{"retire-unparked", 4, []int{0, 2, 3}, func(int) sched.Chooser { return sched.NewRoundRobin() }},
		{"all-retire-unparked", 3, []int{0, 1, 2}, func(int) sched.Chooser { return lowest }},
	} {
		env, bodies := system(c.n, c.idle...)
		x := sched.NewExecutor(env, bodies)
		handoffs := int64(0)
		for run := range 6 {
			s0, h0 := x.Switches(), x.Stats().Handoffs.Load()
			x.Run(c.chooser(run))
			env.Reset()
			h := x.Stats().Handoffs.Load() - h0
			if got, want := x.Switches()-s0, int64(c.n)+h+1; got != want {
				t.Errorf("%s run %d: %d coroutine switches for %d handoffs over %d processes, want n + handoffs + 1 = %d",
					c.name, run, got, h, c.n, want)
			}
			handoffs += h
		}
		if handoffs == 0 && c.name != "all-retire-unparked" {
			t.Errorf("%s: no handoffs in 6 runs; the schedule pins nothing", c.name)
		}
		x.Close()
	}
}

// TestExecutorBodyPanicIsNamed: a body panic comes out of the run, on the
// caller's goroutine, as a *PanicError naming the process and the decisions
// taken so far; the executor then refuses further runs; and the one-shot
// Run cleans up after itself.
func TestExecutorBodyPanicIsNamed(t *testing.T) {
	boom := errors.New("boom")
	env, bodies := panicAt(3, boom)
	x := sched.NewExecutor(env, bodies)
	defer x.Close()
	r := runPanics(func() { x.Run(sched.NewRoundRobin()) })
	pe, ok := r.(*sched.PanicError)
	if !ok {
		t.Fatalf("run panicked with %T %v, want *sched.PanicError", r, r)
	}
	// Round-robin over three processes: process 1 is granted its second
	// access at decision 5 and panics before parking again.
	want := []sched.Choice{{Proc: 0}, {Proc: 1}, {Proc: 2}, {Proc: 0}, {Proc: 1}}
	if pe.Proc != 1 || !reflect.DeepEqual(pe.Schedule, want) || !errors.Is(pe, boom) {
		t.Fatalf("PanicError = proc %d, schedule %v, value %v; want proc 1, schedule %v, value boom", pe.Proc, pe.Schedule, pe.Value, want)
	}
	if msg := pe.Error(); !strings.Contains(msg, "process 1") || !strings.Contains(msg, "boom") {
		t.Fatalf("error text %q names neither the process nor the cause", msg)
	}
	if !strings.Contains(string(pe.Stack), "panicAt") {
		t.Fatalf("stack does not reach the panicking body:\n%s", pe.Stack)
	}
	if r := runPanics(func() { x.Run(sched.NewRoundRobin()) }); r == nil || !strings.Contains(r.(string), "aborted") {
		t.Fatalf("run after an aborted run panicked with %v, want the aborted-run panic", r)
	}

	base := runtime.NumGoroutine()
	env, bodies = panicAt(3, boom)
	if _, ok := runPanics(func() { sched.Run(env, sched.NewRoundRobin(), bodies) }).(*sched.PanicError); !ok {
		t.Fatal("one-shot Run did not propagate the PanicError")
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("one-shot Run left %d goroutines, want %d", got, base)
	}
}

// TestExecutorChooserPanicIsNotBlamedOnABody: a panic in the decision
// procedure runs on some process's stack but is not that body's fault; it
// propagates unwrapped.
func TestExecutorChooserPanicIsNotBlamedOnABody(t *testing.T) {
	env, bodies := counters(3)
	x := sched.NewExecutor(env, bodies)
	defer x.Close()
	r := runPanics(func() {
		x.Run(sched.Func(func(step int, parked sched.ProcSet, _ []memory.Access) sched.Choice {
			if step == 4 {
				panic("chooser bug")
			}
			return sched.Choice{Proc: parked.Min()}
		}))
	})
	if r != "chooser bug" {
		t.Fatalf("run panicked with %T %v, want the chooser's own value", r, r)
	}
}
