package sched

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/memory"
)

// body that performs k reads of r.
func reader(r *memory.IntReg, k int) func(p *memory.Proc) {
	return func(p *memory.Proc) {
		for i := 0; i < k; i++ {
			r.Read(p)
		}
	}
}

func TestRunRoundRobinInterleaves(t *testing.T) {
	env := memory.NewEnv(2)
	r := memory.NewIntReg(0)
	res := Run(env, NewRoundRobin(), []func(p *memory.Proc){reader(r, 3), reader(r, 3)})
	if !res.Finished[0] || !res.Finished[1] {
		t.Fatal("both processes should finish")
	}
	want := []int{0, 1, 0, 1, 0, 1}
	if len(res.Schedule) != len(want) {
		t.Fatalf("schedule length %d, want %d", len(res.Schedule), len(want))
	}
	for i, c := range res.Schedule {
		if c.Proc != want[i] || c.Crash {
			t.Fatalf("schedule[%d] = %+v, want proc %d", i, c, want[i])
		}
	}
	if res.Steps[0] != 3 || res.Steps[1] != 3 {
		t.Fatalf("steps = %v", res.Steps)
	}
}

func TestRunSoloOrder(t *testing.T) {
	env := memory.NewEnv(3)
	r := memory.NewIntReg(0)
	res := Run(env, NewSolo(2, 0, 1), []func(p *memory.Proc){reader(r, 2), reader(r, 2), reader(r, 2)})
	want := []int{2, 2, 0, 0, 1, 1}
	for i, c := range res.Schedule {
		if c.Proc != want[i] {
			t.Fatalf("solo schedule %v, want order 2,2,0,0,1,1", res.Schedule)
		}
	}
}

func TestRunSequentialConsistency(t *testing.T) {
	// Two processes do non-atomic increments (read then write). Under
	// alternation the classic lost update must occur deterministically.
	env := memory.NewEnv(2)
	r := memory.NewIntReg(0)
	inc := func(p *memory.Proc) {
		v := r.Read(p)
		r.Write(p, v+1)
	}
	Run(env, NewRoundRobin(), []func(p *memory.Proc){inc, inc})
	if got := r.Read(env.Proc(0)); got != 1 {
		t.Fatalf("alternating schedule must lose an update: r = %d, want 1", got)
	}

	env2 := memory.NewEnv(2)
	r2 := memory.NewIntReg(0)
	inc2 := func(p *memory.Proc) {
		v := r2.Read(p)
		r2.Write(p, v+1)
	}
	Run(env2, NewSolo(0, 1), []func(p *memory.Proc){inc2, inc2})
	if got := r2.Read(env2.Proc(0)); got != 2 {
		t.Fatalf("solo schedule must keep both updates: r = %d, want 2", got)
	}
}

func TestRunCrash(t *testing.T) {
	env := memory.NewEnv(2)
	r := memory.NewIntReg(0)
	wrote := false
	bodies := []func(p *memory.Proc){
		func(p *memory.Proc) {
			r.Read(p)
			r.Write(p, 1) // never granted: crashed before second step
			wrote = true
		},
		reader(r, 2),
	}
	res := Run(env, &CrashAfter{Inner: NewRoundRobin(), Victim: 0, K: 1}, bodies)
	if !res.Crashed[0] {
		t.Fatal("process 0 should have crashed")
	}
	if res.Finished[0] {
		t.Fatal("crashed process must not be reported finished")
	}
	if wrote {
		t.Fatal("crashed process must not take further steps")
	}
	if !res.Finished[1] {
		t.Fatal("process 1 should finish despite the crash")
	}
	if !env.Proc(0).Crashed() {
		t.Fatal("crash flag should be set on the proc")
	}
}

func TestReplayStrategy(t *testing.T) {
	mk := func() (*memory.Env, *memory.IntReg, []func(p *memory.Proc)) {
		env := memory.NewEnv(2)
		r := memory.NewIntReg(0)
		inc := func(p *memory.Proc) {
			v := r.Read(p)
			r.Write(p, v+1)
		}
		return env, r, []func(p *memory.Proc){inc, inc}
	}
	env1, r1, b1 := mk()
	res1 := Run(env1, NewRandom(42), b1)
	v1 := r1.Read(env1.Proc(0))

	env2, r2, b2 := mk()
	res2 := Run(env2, NewReplay(res1.Schedule), b2)
	v2 := r2.Read(env2.Proc(0))

	if v1 != v2 {
		t.Fatalf("replay diverged: %d vs %d", v1, v2)
	}
	if len(res1.Schedule) != len(res2.Schedule) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(res1.Schedule), len(res2.Schedule))
	}
	for i := range res1.Schedule {
		if res1.Schedule[i] != res2.Schedule[i] {
			t.Fatalf("schedules diverge at %d", i)
		}
	}
}

func TestRunRandomDeterministicPerSeed(t *testing.T) {
	runOnce := func(seed int64) []Choice {
		env := memory.NewEnv(3)
		r := memory.NewIntReg(0)
		res := Run(env, NewRandom(seed), []func(p *memory.Proc){reader(r, 4), reader(r, 4), reader(r, 4)})
		return res.Schedule
	}
	a, b := runOnce(7), runOnce(7)
	if len(a) != len(b) {
		t.Fatal("same seed must give same schedule length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestRunPanicsOnBodyCountMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(memory.NewEnv(2), NewRoundRobin(), []func(p *memory.Proc){func(p *memory.Proc) {}})
}

func TestFuncStrategy(t *testing.T) {
	env := memory.NewEnv(2)
	r := memory.NewIntReg(0)
	// Always pick the highest parked id.
	st := idFunc(func(_ int, parked []int) Choice {
		return Choice{Proc: parked[len(parked)-1]}
	})
	res := Run(env, st, []func(p *memory.Proc){reader(r, 2), reader(r, 2)})
	if res.Schedule[0].Proc != 1 {
		t.Fatalf("first grant should go to proc 1, got %v", res.Schedule)
	}
}

// ids lists a parked set's members counting up, the sorted id slice the
// reference strategies are written over.
func ids(parked ProcSet) []int {
	var out []int
	for m := parked; m != 0; m &= m - 1 {
		out = append(out, m.Min())
	}
	return out
}

// idFunc adapts a decision function over the sorted id slice — the form
// the reference strategies are written in — to a Chooser.
func idFunc(f func(step int, parked []int) Choice) Func {
	return func(step int, parked ProcSet, _ []memory.Access) Choice { return f(step, ids(parked)) }
}

// parkedLog wraps a chooser and records the parked set every decision was
// made from.
type parkedLog struct {
	Chooser
	sets [][]int
}

func (l *parkedLog) Choose(step int, parked ProcSet, next []memory.Access) Choice {
	l.sets = append(l.sets, ids(parked))
	return l.Chooser.Choose(step, parked, next)
}

// TestProcSet pins the word operations every decider is built on against
// the id slice they replace.
func TestProcSet(t *testing.T) {
	for _, s := range []ProcSet{1, 0b1011_0100, 1<<63 | 1<<40 | 1, ^ProcSet(0)} {
		list := ids(s)
		if s.Len() != len(list) || s.Min() != list[0] {
			t.Fatalf("%b: Len %d / Min %d, members %v", s, s.Len(), s.Min(), list)
		}
		for k, id := range list {
			if got := s.Nth(k); got != id {
				t.Fatalf("%b: Nth(%d) = %d, want %d", s, k, got, id)
			}
		}
		for p := -1; p <= MaxProcs; p++ {
			if want := slices.Contains(list, p); s.Has(p) != want {
				t.Fatalf("%b: Has(%d) = %v, want %v", s, p, s.Has(p), want)
			}
		}
	}
}

func TestParkedSetsRecorded(t *testing.T) {
	env := memory.NewEnv(2)
	r := memory.NewIntReg(0)
	log := &parkedLog{Chooser: NewRoundRobin()}
	Run(env, log, []func(p *memory.Proc){reader(r, 1), reader(r, 1)})
	if want := [][]int{{0, 1}, {1}}; !reflect.DeepEqual(log.sets, want) {
		t.Fatalf("parked sets = %v, want %v", log.sets, want)
	}
}

func TestAlternateStrategy(t *testing.T) {
	env := memory.NewEnv(2)
	r := memory.NewIntReg(0)
	res := Run(env, &Alternate{}, []func(p *memory.Proc){reader(r, 2), reader(r, 2)})
	want := []int{0, 1, 0, 1}
	for i, c := range res.Schedule {
		if c.Proc != want[i] {
			t.Fatalf("alternate schedule = %v", res.Schedule)
		}
	}
}

func TestCrashAfterZeroStepsCrashesImmediately(t *testing.T) {
	env := memory.NewEnv(2)
	r := memory.NewIntReg(0)
	res := Run(env, &CrashAfter{Inner: NewRoundRobin(), Victim: 1, K: 0},
		[]func(p *memory.Proc){reader(r, 2), reader(r, 2)})
	if !res.Crashed[1] || res.Steps[1] != 0 {
		t.Fatalf("victim should crash before any step: %+v", res)
	}
	if !res.Finished[0] {
		t.Fatal("survivor should finish")
	}
}

// pooledHarness builds a tiny two-process system over registered objects so
// executor tests can reset and rerun it.
func pooledHarness() (*memory.Env, *memory.IntReg, []func(p *memory.Proc)) {
	env := memory.NewEnv(2)
	r := memory.NewIntReg(0)
	env.Register(r)
	inc := func(p *memory.Proc) {
		v := r.Read(p)
		r.Write(p, v+1)
	}
	return env, r, []func(p *memory.Proc){inc, inc}
}

// TestExecutorMatchesRunChooser pins a reused executor to the reference
// channel scheduler's semantics on a system small enough to read: the same
// strategy over the same system produces the same schedule, steps, flags and
// accesses, run after run after reset. (protocol_test.go does the same over
// the whole scenario registry under random schedules with crashes.)
func TestExecutorMatchesRunChooser(t *testing.T) {
	env, r, bodies := pooledHarness()
	x := NewExecutor(env, bodies)
	defer x.Close()

	for round := 0; round < 5; round++ {
		got := x.Run(NewRoundRobin())
		final := r.Read(env.Proc(0))
		env.Reset()

		envB, rB, bodiesB := pooledHarness()
		want := RefRun(envB, NewRoundRobin(), bodiesB)

		if !reflect.DeepEqual(got.Schedule, want.Schedule) {
			t.Fatalf("round %d: schedule %v, want %v", round, got.Schedule, want.Schedule)
		}
		if !reflect.DeepEqual(got.Steps, want.Steps) || !reflect.DeepEqual(got.Finished, want.Finished) {
			t.Fatalf("round %d: steps/finished diverge: %+v vs %+v", round, got, want)
		}
		// Object identities are global-counter-derived and so env-local;
		// compare the schedule-relevant parts of each access.
		if len(got.Accesses) != len(want.Accesses) {
			t.Fatalf("round %d: %d accesses, want %d", round, len(got.Accesses), len(want.Accesses))
		}
		for i := range got.Accesses {
			if got.Accesses[i].Kind != want.Accesses[i].Kind || got.Accesses[i].Proc != want.Accesses[i].Proc {
				t.Fatalf("round %d: access %d = %+v, want %+v", round, i, got.Accesses[i], want.Accesses[i])
			}
		}
		if wantFinal := rB.Read(envB.Proc(0)); final != wantFinal {
			t.Fatalf("round %d: final value %d, want %d", round, final, wantFinal)
		}
	}
}

// TestExecutorCrashAndReuse crashes a process mid-run and verifies the
// pooled goroutine survives for the next execution.
func TestExecutorCrashAndReuse(t *testing.T) {
	env, r, bodies := pooledHarness()
	x := NewExecutor(env, bodies)
	defer x.Close()

	res := x.Run(&CrashAfter{Inner: NewRoundRobin(), Victim: 0, K: 1})
	if !res.Crashed[0] || res.Finished[0] {
		t.Fatalf("victim not crashed: %+v", res)
	}
	if !res.Finished[1] {
		t.Fatal("survivor must finish")
	}
	env.Reset()

	res = x.Run(NewSolo(0, 1))
	if !res.Finished[0] || !res.Finished[1] || res.Crashed[0] {
		t.Fatalf("post-crash reuse broken: %+v", res)
	}
	if got := r.Read(env.Proc(0)); got != 2 {
		t.Fatalf("solo reuse final value = %d, want 2", got)
	}
}

// TestExecutorResultLifetime pins the Result contract of a pooled executor:
// every run refills the same Result (no per-run allocation), so a copy
// taken before the next run keeps the old execution while the returned
// pointer moves on to the new one.
func TestExecutorResultLifetime(t *testing.T) {
	env, _, bodies := pooledHarness()
	x := NewExecutor(env, bodies)
	defer x.Close()

	first := x.Run(NewSolo(0, 1))
	kept := append([]Choice(nil), first.Schedule...)
	env.Reset()
	second := x.Run(NewSolo(1, 0))
	if second != first {
		t.Fatal("executor returned a fresh Result; runs must refill the one it owns")
	}
	if reflect.DeepEqual(kept, second.Schedule) {
		t.Fatalf("solo(0,1) and solo(1,0) produced the same schedule %v", kept)
	}
	if kept[0].Proc != 0 || second.Schedule[0].Proc != 1 {
		t.Fatalf("copy %v / refilled result %v: first choices should be proc 0 / proc 1", kept, second.Schedule)
	}
	env.Reset()
	if avg := testing.AllocsPerRun(20, func() {
		x.Run(NewRoundRobin())
		env.Reset()
	}); avg > 1 { // the RoundRobin value itself
		t.Fatalf("a pooled run allocated %.1f objects, want at most the strategy value", avg)
	}
}

// TestExecutorLeavesNoGate verifies the gate is uninstalled between runs so
// checks can read registers without parking.
func TestExecutorLeavesNoGate(t *testing.T) {
	env, r, bodies := pooledHarness()
	x := NewExecutor(env, bodies)
	defer x.Close()
	x.Run(NewRoundRobin())
	done := make(chan int64, 1)
	go func() { done <- r.Read(env.Proc(0)) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("read after Run parked at a leftover gate")
	}
}
