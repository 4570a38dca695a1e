package engine_test

// Fault injection: a harness body or check closure that panics must come
// back from engine.Run / randexp.Run as a named error — cause, process,
// schedule — on every path and at any worker count, with no worker left
// waiting and no coroutine left behind; so must a harness that returns no
// reset, from stress.Run as well. The panics are planted on
// interleaving-dependent conditions, so they fire some attempts into the walk
// (seeds 11 and 15 of the first sampled batch), with the other workers busy.

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/randexp"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/stress"
)

var errBoom = errors.New("boom")

// faulty is a three-process harness: every body increments a shared register
// twice, non-atomically. With bodyPanic, process 1 panics when its second
// read returns 4; with checkPanic, the check panics on a final value of 3.
// Both need particular interleavings; neither is reachable round-robin (the
// PCT probe) or solo.
func faulty(bodyPanic, checkPanic bool) engine.Harness {
	return func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(3)
		r := memory.NewIntReg(0)
		env.Register(r)
		bodies := make([]func(p *memory.Proc), 3)
		for i := range bodies {
			i := i
			bodies[i] = func(p *memory.Proc) {
				for k := 0; k < 2; k++ {
					v := r.Read(p)
					if bodyPanic && i == 1 && k == 1 && v == 4 {
						panic(errBoom)
					}
					r.Write(p, v+1)
				}
			}
		}
		check := func(res *sched.Result) error {
			if checkPanic && r.Read(env.Proc(0)) == 3 {
				panic(errBoom)
			}
			return nil
		}
		return env, bodies, check, func() {}
	}
}

// runners are the two frontends, each returning only its error.
var runners = map[string]func(h engine.Harness, workers int) error{
	"exhaustive": func(h engine.Harness, workers int) error {
		_, err := engine.Run(h, engine.Config{Prune: engine.PruneSourceDPOR, Workers: workers})
		return err
	},
	"sampled": func(h engine.Harness, workers int) error {
		_, err := randexp.Run(h, randexp.Config{Sampler: randexp.SamplerPCT, Samples: 4000, Seed: 1, Workers: workers, BatchSize: 64})
		return err
	},
}

// settledGoroutines returns the goroutine count once it is back at base. A
// coroutine is gone when Close returns, but a pool worker that has signalled
// its WaitGroup may still be on its way out when Run returns, so the count
// is polled; only a real leak — which never settles — waits out the limit.
func settledGoroutines(base int) int {
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if n := runtime.NumGoroutine(); n <= base || time.Now().After(deadline) {
			return n
		}
	}
}

// assertNamedPanic runs h through both frontends at 1 and 4 workers and
// requires an error carrying every fragment, errBoom in its chain when the
// panic value survives as an error, and no goroutine beyond the baseline.
func assertNamedPanic(t *testing.T, h engine.Harness, wrapsValue bool, fragments ...string) {
	t.Helper()
	for name, run := range runners {
		for _, workers := range []int{1, 4} {
			base := runtime.NumGoroutine()
			err := run(h, workers)
			if err == nil {
				t.Fatalf("%s, %d workers: no error from a panicking harness", name, workers)
			}
			var ce *engine.CheckError
			if errors.As(err, &ce) {
				t.Fatalf("%s, %d workers: panic reported as a check failure: %v", name, workers, err)
			}
			for _, f := range fragments {
				if !strings.Contains(err.Error(), f) {
					t.Fatalf("%s, %d workers: error %q does not mention %q", name, workers, err, f)
				}
			}
			if wrapsValue && !errors.Is(err, errBoom) {
				t.Fatalf("%s, %d workers: error %q does not wrap the panic value", name, workers, err)
			}
			if got := settledGoroutines(base); got > base {
				t.Fatalf("%s, %d workers: %d goroutines after Run, baseline %d", name, workers, got, base)
			}
		}
	}
}

func TestBodyPanicIsNamedError(t *testing.T) {
	assertNamedPanic(t, faulty(true, false), true,
		"harness body panicked", "process 1", "schedule [{", "boom")
}

func TestCheckPanicIsNamedError(t *testing.T) {
	assertNamedPanic(t, faulty(false, true), false,
		"harness check panicked", "schedule [{", "boom")
}

// TestNilResetIsNamedError: there is one harness lifecycle — construct once
// per worker, reset between executions — so every entry point rejects a
// harness that returns no reset, with an error that wraps engine.ErrNilReset
// and names the harness function (stress.Run: the scenario).
func TestNilResetIsNamedError(t *testing.T) {
	build := func(n int, _ scenario.Options) (engine.Harness, scenario.Oracle) {
		return func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
			bodies := make([]func(p *memory.Proc), n)
			for i := range bodies {
				bodies[i] = func(*memory.Proc) {}
			}
			return memory.NewEnv(n), bodies, func(*sched.Result) error { return nil }, nil
		}, scenario.Oracle{}
	}
	h, _ := build(2, scenario.Options{})
	sampled := func(s randexp.Sampler) func(int) error {
		return func(workers int) error {
			_, err := randexp.Run(h, randexp.Config{Sampler: s, Samples: 200, Seed: 1, Workers: workers})
			return err
		}
	}
	for _, c := range []struct {
		entry string
		names string
		run   func(workers int) error
	}{
		{"engine.Run", "TestNilResetIsNamedError", func(workers int) error {
			_, err := engine.Run(h, engine.Config{Prune: engine.PruneSourceDPOR, Workers: workers})
			return err
		}},
		{"randexp.Run probe", "TestNilResetIsNamedError", sampled(randexp.SamplerPCT)},
		{"randexp.Run batch", "TestNilResetIsNamedError", sampled(randexp.SamplerRandom)},
		{"stress.Run", `scenario "noreset"`, func(workers int) error {
			_, err := stress.Run(stress.Config{Scenario: scenario.Scenario{Name: "noreset", Build: build}, G: workers, MaxRounds: 1})
			return err
		}},
	} {
		for _, workers := range []int{1, 4} {
			base := runtime.NumGoroutine()
			err := c.run(workers)
			if !errors.Is(err, engine.ErrNilReset) || !strings.Contains(err.Error(), c.names) {
				t.Fatalf("%s, %d workers: error %v, want engine.ErrNilReset naming %s", c.entry, workers, err, c.names)
			}
			if got := settledGoroutines(base); got > base {
				t.Fatalf("%s, %d workers: %d goroutines after the rejection, baseline %d", c.entry, workers, got, base)
			}
		}
	}
}
