package tas

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/spec"
)

func TestF1SoloContiguousTickets(t *testing.T) {
	env := memory.NewEnv(1)
	s := NewSpecFetchInc()
	p := env.Proc(0)
	for want := int64(0); want < 10; want++ {
		p.ResetCounters()
		ticket, module := s.Inc(p)
		if ticket != want || module != 0 {
			t.Fatalf("solo inc = (%d, module %d), want (%d, 0)", ticket, module, want)
		}
		if p.RMWs() != 0 {
			t.Fatalf("solo speculative inc used %d RMWs", p.RMWs())
		}
		if p.Steps() > 10 {
			t.Fatalf("solo speculative inc took %d steps, want constant", p.Steps())
		}
	}
}

func TestF2RebasesOnce(t *testing.T) {
	env := memory.NewEnv(2)
	f2 := NewF2()
	out, tk, _ := f2.Invoke(env.Proc(0), reqOf(1), int64(5))
	if out.String() != "committed" || tk != 5 {
		t.Fatalf("first F2 ticket = %d, want 5 (rebased)", tk)
	}
	// A later, larger estimate must NOT re-rebase (base is write-once).
	_, tk, _ = f2.Invoke(env.Proc(1), reqOf(2), int64(100))
	if tk != 6 {
		t.Fatalf("second F2 ticket = %d, want 6", tk)
	}
}

func TestF1InheritedEstimatePassesThrough(t *testing.T) {
	env := memory.NewEnv(1)
	f1 := NewF1()
	out, _, sv := f1.Invoke(env.Proc(0), reqOf(1), int64(7))
	if out.String() != "aborted" || sv.(int64) != 7 {
		t.Fatalf("F1 with inherited estimate = (%v, %v), want pass-through abort", out, sv)
	}
}

// Exhaustive small-scope: two processes, two increments each, through the
// composed dispenser. Tickets must be globally unique and per-process
// strictly increasing; hardware must never reissue a speculatively
// committed ticket.
func TestExhaustiveSpecFetchIncUnique(t *testing.T) {
	h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(2)
		s := NewSpecFetchInc()
		env.Register(s)
		tickets := make([][]int64, 2)
		modules := make([][]int, 2)
		bodies := make([]func(p *memory.Proc), 2)
		for i := 0; i < 2; i++ {
			i := i
			bodies[i] = func(p *memory.Proc) {
				for k := 0; k < 2; k++ {
					tk, mod := s.Inc(p)
					tickets[i] = append(tickets[i], tk)
					modules[i] = append(modules[i], mod)
				}
			}
		}
		check := func(res *sched.Result) error {
			seen := map[int64]bool{}
			for i := 0; i < 2; i++ {
				prev := int64(-1)
				for k, tk := range tickets[i] {
					if seen[tk] {
						return fmt.Errorf("duplicate ticket %d (proc %d op %d; modules %v/%v)",
							tk, i, k, modules[0], modules[1])
					}
					seen[tk] = true
					if tk <= prev {
						return fmt.Errorf("proc %d tickets not increasing: %v", i, tickets[i])
					}
					prev = tk
				}
			}
			return nil
		}
		reset := func() {
			for i := range tickets {
				tickets[i] = tickets[i][:0]
				modules[i] = modules[i][:0]
			}
		}
		return env, bodies, check, reset
	}
	rep, err := engine.Run(h, engineCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatal("pruned two-process exploration should be exhaustive (the seed engine capped out at 60000)")
	}
	t.Logf("spec F&I n=2: %d interleavings (%d pruned)", rep.Executions, rep.Pruned)
}

func TestRandomizedSpecFetchIncThreeProcs(t *testing.T) {
	h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(3)
		s := NewSpecFetchInc()
		env.Register(s)
		tickets := make([][]int64, 3)
		bodies := make([]func(p *memory.Proc), 3)
		for i := 0; i < 3; i++ {
			i := i
			bodies[i] = func(p *memory.Proc) {
				for k := 0; k < 3; k++ {
					tk, _ := s.Inc(p)
					tickets[i] = append(tickets[i], tk)
				}
			}
		}
		check := func(res *sched.Result) error {
			seen := map[int64]bool{}
			for i := range tickets {
				for _, tk := range tickets[i] {
					if seen[tk] {
						return fmt.Errorf("duplicate ticket %d", tk)
					}
					seen[tk] = true
				}
			}
			return nil
		}
		reset := func() {
			for i := range tickets {
				tickets[i] = tickets[i][:0]
			}
		}
		return env, bodies, check, reset
	}
	if _, err := engine.Sample(h, engine.SampleConfig{Samples: 3000, Seed: 23}); err != nil {
		t.Fatal(err)
	}
}

func TestSpecFetchIncStress(t *testing.T) {
	const n, per = 8, 500
	env := memory.NewEnv(n)
	s := NewSpecFetchInc()
	out := make([][]int64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := env.Proc(i)
			for k := 0; k < per; k++ {
				tk, _ := s.Inc(p)
				out[i] = append(out[i], tk)
			}
		}(i)
	}
	wg.Wait()
	seen := map[int64]bool{}
	for i := range out {
		prev := int64(-1)
		for _, tk := range out[i] {
			if seen[tk] {
				t.Fatalf("duplicate ticket %d", tk)
			}
			seen[tk] = true
			if tk <= prev {
				t.Fatalf("proc %d tickets not increasing", i)
			}
			prev = tk
		}
	}
	if len(seen) != n*per {
		t.Fatalf("tickets = %d, want %d", len(seen), n*per)
	}
}

func TestSpecFetchIncSwitchBurnsEstimateOnly(t *testing.T) {
	// Deterministic round-robin duel: both processes interleave; the
	// dispenser must stay unique, and tickets issued by hardware must be
	// strictly larger than every speculative commit.
	env := memory.NewEnv(2)
	s := NewSpecFetchInc()
	var tk [2]int64
	var mod [2]int
	bodies := []func(p *memory.Proc){
		func(p *memory.Proc) { tk[0], mod[0] = s.Inc(p) },
		func(p *memory.Proc) { tk[1], mod[1] = s.Inc(p) },
	}
	sched.Run(env, sched.NewRoundRobin(), bodies)
	if tk[0] == tk[1] {
		t.Fatalf("duplicate ticket %d", tk[0])
	}
	for i := 0; i < 2; i++ {
		if mod[i] == 0 && mod[1-i] == 1 && tk[i] >= tk[1-i] {
			t.Fatalf("hardware ticket %d not above speculative ticket %d", tk[1-i], tk[i])
		}
	}
}

func reqOf(id int64) spec.Request { return spec.Request{ID: id, Op: spec.OpInc} }
