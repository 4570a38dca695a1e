package splitter

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/sched"
)

func TestSoloGetsStop(t *testing.T) {
	env := memory.NewEnv(1)
	p := env.Proc(0)
	s := New()
	if got := s.Get(p); got != Stop {
		t.Fatalf("solo access = %v, want stop", got)
	}
	if p.Steps() != 4 {
		t.Fatalf("solo splitter steps = %d, want 4", p.Steps())
	}
	if p.RMWs() != 0 {
		t.Fatalf("splitter must be register-only, saw %d RMWs", p.RMWs())
	}
}

func TestResetRestoresSolo(t *testing.T) {
	env := memory.NewEnv(1)
	p := env.Proc(0)
	s := New()
	if s.Get(p) != Stop {
		t.Fatal("first solo access must stop")
	}
	// Without reset, a second access fails (door closed).
	if s.Get(p) == Stop {
		t.Fatal("second access without reset must not stop")
	}
	s.Reset(p)
	if s.Get(p) != Stop {
		t.Fatal("access after reset must stop")
	}
}

func TestSequentialSecondLoses(t *testing.T) {
	env := memory.NewEnv(2)
	s := New()
	if s.Get(env.Proc(0)) != Stop {
		t.Fatal("first must stop")
	}
	if got := s.Get(env.Proc(1)); got != Right {
		t.Fatalf("second sequential access = %v, want right (door closed)", got)
	}
}

// Exhaustive: in every interleaving of two concurrent accesses, at most one
// process returns Stop.
func TestExhaustiveAtMostOneStop(t *testing.T) {
	outcomes := map[string]int{}
	h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(2)
		s := New()
		env.Register(s)
		got := make([]Outcome, 2)
		bodies := []func(p *memory.Proc){
			func(p *memory.Proc) { got[0] = s.Get(p) },
			func(p *memory.Proc) { got[1] = s.Get(p) },
		}
		check := func(res *sched.Result) error {
			outcomes[fmt.Sprintf("%v-%v", got[0], got[1])]++
			if got[0] == Stop && got[1] == Stop {
				return fmt.Errorf("both stopped")
			}
			return nil
		}
		reset := func() {
			clear(got)
		}
		return env, bodies, check, reset
	}
	rep, err := engine.Run(h, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executions < 6 {
		t.Fatalf("suspiciously few interleavings: %d", rep.Executions)
	}
	// The splitter must actually split: some interleaving yields no Stop or
	// a Down/Right mix, and some yields a Stop.
	sawStop := false
	for k, n := range outcomes {
		if n > 0 && (k[:4] == "stop" || k[len(k)-4:] == "stop") {
			sawStop = true
		}
	}
	if !sawStop {
		t.Fatalf("no interleaving produced a stop: %v", outcomes)
	}
}

// Exhaustive with three processes (capped): at most one Stop per epoch.
func TestThreeWayAtMostOneStop(t *testing.T) {
	h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(3)
		s := New()
		env.Register(s)
		got := make([]Outcome, 3)
		bodies := make([]func(p *memory.Proc), 3)
		for i := 0; i < 3; i++ {
			i := i
			bodies[i] = func(p *memory.Proc) { got[i] = s.Get(p) }
		}
		check := func(res *sched.Result) error {
			stops := 0
			for _, o := range got {
				if o == Stop {
					stops++
				}
			}
			if stops > 1 {
				return fmt.Errorf("%d stops", stops)
			}
			return nil
		}
		reset := func() {
			clear(got)
		}
		return env, bodies, check, reset
	}
	rep, err := engine.Run(h, engine.Config{Prune: engine.PruneSourceDPOR, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executions == 0 {
		t.Fatal("no executions")
	}
}

func TestOutcomeString(t *testing.T) {
	for _, o := range []Outcome{Stop, Down, Right} {
		if o.String() == "unknown" || o.String() == "" {
			t.Fatalf("bad string for %d", o)
		}
	}
	if Outcome(9).String() != "unknown" {
		t.Fatal("unknown outcome should say so")
	}
}
