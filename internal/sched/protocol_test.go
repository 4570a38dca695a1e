package sched_test

// Protocol tests for the coroutine executor: differential agreement with the
// reference channel scheduler over the scenario registry, allocation-free
// runs, leak-free Close in every state, and body panics that come out as
// named errors. They live in the external test package because the registry
// imports sched.

import (
	"errors"
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

// counters is a resettable three-process system: each body increments a
// shared register twice, non-atomically.
func counters() (*memory.Env, []func(p *memory.Proc)) {
	env := memory.NewEnv(3)
	r := memory.NewIntReg(0)
	env.Register(r)
	inc := func(p *memory.Proc) {
		for k := 0; k < 2; k++ {
			r.Write(p, r.Read(p)+1)
		}
	}
	return env, []func(p *memory.Proc){inc, inc, inc}
}

// TestExecutorRunAllocFree: a run on a warmed executor — self-grants,
// handoffs and crash unwinds included — allocates nothing.
func TestExecutorRunAllocFree(t *testing.T) {
	env, bodies := counters()
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

// panicAt returns the counters system with process 1 panicking (with err) at
// its third access.
func panicAt(err error) (*memory.Env, []func(p *memory.Proc)) {
	env, bodies := counters()
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

// TestExecutorCloseLeavesNoGoroutine: Close ends every coroutine whatever
// state the executor is in — never run, between runs, and after a run a
// panic aborted with the other bodies parked mid-execution — and a closed
// executor refuses to run.
func TestExecutorCloseLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	check := func(state string, x *sched.Executor) {
		t.Helper()
		if got := runtime.NumGoroutine(); got <= base {
			t.Fatalf("%s: %d goroutines before Close against a baseline of %d: coroutines are not being counted", state, got, base)
		}
		x.Close()
		x.Close() // idempotent
		if got := runtime.NumGoroutine(); got > base {
			t.Fatalf("%s: %d goroutines after Close, want the baseline %d", state, got, base)
		}
		if r := runPanics(func() { x.Run(sched.NewRoundRobin()) }); r == nil || !strings.Contains(r.(string), "closed Executor") {
			t.Fatalf("%s: Run on a closed executor panicked with %v, want the closed-Executor panic", state, r)
		}
	}

	env, bodies := counters()
	check("idle", sched.NewExecutor(env, bodies))

	env, bodies = counters()
	x := sched.NewExecutor(env, bodies)
	x.Run(sched.NewRoundRobin())
	check("after a completed run", x)

	env, bodies = panicAt(errors.New("boom"))
	x = sched.NewExecutor(env, bodies)
	if r := runPanics(func() { x.Run(sched.NewRoundRobin()) }); r == nil {
		t.Fatal("the body's panic did not propagate out of the run")
	}
	check("after an aborted run", x)
	// Close detached the aborted run: the environment is usable again.
	if x2 := sched.NewExecutor(env, bodies); runPanics(func() { x2.Run(sched.NewSolo(0, 2, 1)) }) == nil {
		t.Fatal("rerun on the same environment did not reach the panicking body")
	} else {
		x2.Close()
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines at the end, want the baseline %d", got, base)
	}
}

// TestExecutorBodyPanicIsNamed: a body panic comes out of the run, on the
// caller's goroutine, as a *PanicError naming the process and the decisions
// taken so far; the executor then refuses further runs; and the one-shot
// Run cleans up after itself.
func TestExecutorBodyPanicIsNamed(t *testing.T) {
	boom := errors.New("boom")
	env, bodies := panicAt(boom)
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
	env, bodies = panicAt(boom)
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
	env, bodies := counters()
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
