package engine

import (
	"errors"
	"testing"

	"repro/internal/memory"
	"repro/internal/sched"
)

// lostUpdateHarness: two processes perform a non-atomic increment. The
// final value is 1 or 2 depending on interleaving; record outcomes.
func lostUpdateHarness(outcomes map[int64]int) Harness {
	return func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(2)
		r := memory.NewIntReg(0)
		env.Register(r)
		inc := func(p *memory.Proc) {
			v := r.Read(p)
			r.Write(p, v+1)
		}
		check := func(res *sched.Result) error {
			outcomes[r.Read(env.Proc(0))]++
			return nil
		}
		return env, []func(p *memory.Proc){inc, inc}, check, func() {}
	}
}

func TestExploreFindsAllOutcomes(t *testing.T) {
	outcomes := map[int64]int{}
	rep, err := Run(lostUpdateHarness(outcomes), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Each process takes 2 steps; interleavings of (2,2) = C(4,2) = 6.
	if rep.Executions != 6 {
		t.Fatalf("executions = %d, want 6", rep.Executions)
	}
	if rep.Partial {
		t.Fatal("unexpected partial report")
	}
	if outcomes[1] == 0 || outcomes[2] == 0 {
		t.Fatalf("explorer must find both the lost update and the clean run: %v", outcomes)
	}
	if outcomes[1]+outcomes[2] != 6 {
		t.Fatalf("outcomes = %v", outcomes)
	}
	if rep.MaxDepth != 4 {
		t.Fatalf("max depth = %d, want 4", rep.MaxDepth)
	}
}

func TestExploreReportsFailingSchedule(t *testing.T) {
	_, err := Run(plantedBugHarness(), Config{})
	var ce *CheckError
	if !errors.As(err, &ce) {
		t.Fatalf("want CheckError, got %v", err)
	}
	if len(ce.Schedule) == 0 {
		t.Fatal("CheckError should carry the failing schedule")
	}

	// The reported schedule must reproduce the failure under replay.
	env, bodies, check, _ := plantedBugHarness()()
	if check(sched.Run(env, sched.NewReplay(ce.Schedule), bodies)) == nil {
		t.Fatal("replayed schedule should reproduce the lost update")
	}
}

func TestExploreMaxExecutions(t *testing.T) {
	outcomes := map[int64]int{}
	rep, err := Run(lostUpdateHarness(outcomes), Config{MaxExecutions: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial || rep.Executions != 3 {
		t.Fatalf("rep = %+v, want partial after 3", rep)
	}
}

func TestExploreWithCrashes(t *testing.T) {
	// One process, two steps, with crash branches: executions are
	// {step,step}, {step,crash}, {crash}. The check verifies a crashed
	// process never completes.
	type outcome struct {
		crashed  bool
		finished bool
	}
	var seen []outcome
	h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(1)
		r := memory.NewIntReg(0)
		env.Register(r)
		body := func(p *memory.Proc) {
			r.Read(p)
			r.Write(p, 1)
		}
		check := func(res *sched.Result) error {
			seen = append(seen, outcome{res.Crashed[0], res.Finished[0]})
			if res.Crashed[0] && res.Finished[0] {
				return errors.New("crashed and finished")
			}
			return nil
		}
		return env, []func(p *memory.Proc){body}, check, func() {}
	}
	rep, err := Run(h, Config{Crashes: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executions != 3 {
		t.Fatalf("executions = %d, want 3 (run-run, run-crash, crash)", rep.Executions)
	}
	crashes := 0
	for _, o := range seen {
		if o.crashed {
			crashes++
		}
	}
	if crashes != 2 {
		t.Fatalf("crash executions = %d, want 2", crashes)
	}
}

func TestExploreCountsMatchCombinatorics(t *testing.T) {
	// k steps for each of two processes: C(2k, k) interleavings.
	choose := func(n, k int) int {
		c := 1
		for i := 0; i < k; i++ {
			c = c * (n - i) / (i + 1)
		}
		return c
	}
	for k := 1; k <= 4; k++ {
		h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
			env := memory.NewEnv(2)
			r := memory.NewIntReg(0)
			env.Register(r)
			body := func(p *memory.Proc) {
				for i := 0; i < k; i++ {
					r.Read(p)
				}
			}
			return env, []func(p *memory.Proc){body, body}, func(*sched.Result) error { return nil }, func() {}
		}
		rep, err := Run(h, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if want := choose(2*k, k); rep.Executions != want {
			t.Fatalf("k=%d: executions = %d, want C(%d,%d) = %d", k, rep.Executions, 2*k, k, want)
		}
	}
}
