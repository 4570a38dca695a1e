package sched_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/memory"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// TestStrategyStreamsPinned pins the schedule every seeded strategy draws on
// the composed one-shot TAS at n=4, seeds 1..16: one digest per strategy
// over the (proc, crash) sequence of each run — and, for the walk, the bits
// of its importance weight. Crash-injecting strategies run on the
// crash-aware build and must crash somebody. Any change to a draw, to the
// order in which parked processes are counted, or to the weight arithmetic
// moves a digest.
func TestStrategyStreamsPinned(t *testing.T) {
	const n, k, d, p = 4, 32, 3, 0.25
	rates := []float64{4, 1, 1, 0.25}
	crashSeed := func(s int64) int64 { return s ^ 0x5DEECE66D }
	cases := []struct {
		name    string
		crashes bool
		run     func(x *sched.Executor, seed int64) (*sched.Result, float64)
		want    string
	}{
		{"random", false, func(x *sched.Executor, s int64) (*sched.Result, float64) {
			return x.Run(sched.NewRandom(s)), 0
		}, "2aaadf6af389e7a1"},
		{"random-crash", true, func(x *sched.Executor, s int64) (*sched.Result, float64) {
			return x.Run(sched.NewRandomCrash(s, p)), 0
		}, "2c3d80ded93cfb6b"},
		{"pct", false, func(x *sched.Executor, s int64) (*sched.Result, float64) {
			return x.Run(sched.NewPCT(s, n, k, d)), 0
		}, "aeeb7dfb6330ece5"},
		{"pct-colliding", false, func(x *sched.Executor, s int64) (*sched.Result, float64) {
			return x.Run(sched.NewPCT(s, n, 4, 5)), 0 // four change points over four steps
		}, "3a4e2b5f546cea43"},
		{"pct-crashes", true, func(x *sched.Executor, s int64) (*sched.Result, float64) {
			return x.Run(sched.WithCrashes(sched.NewPCT(s, n, k, d), crashSeed(s), p)), 0
		}, "e37dd8df0f74458c"},
		{"walk", false, func(x *sched.Executor, s int64) (*sched.Result, float64) {
			w := sched.NewWalk(s)
			return x.Run(w), w.LogWeight()
		}, "330d168d035bfc64"},
		{"walk-crashes", true, func(x *sched.Executor, s int64) (*sched.Result, float64) {
			w := sched.NewWalk(s)
			return x.Run(sched.WithCrashes(w, crashSeed(s), p)), w.LogWeight()
		}, "669fce939e146ef7"},
		{"rates", false, func(x *sched.Executor, s int64) (*sched.Result, float64) {
			return x.Run(sched.NewRates(s, rates)), 0
		}, "4622a8c96ce5f022"},
		{"rates-crashes", true, func(x *sched.Executor, s int64) (*sched.Result, float64) {
			return x.Run(sched.WithCrashes(sched.NewRates(s, rates), crashSeed(s), p)), 0
		}, "802f0f23e270756c"},
		{"random-crashes", true, func(x *sched.Executor, s int64) (*sched.Result, float64) {
			return x.Run(sched.WithCrashes(sched.NewRandom(s), crashSeed(s), p)), 0
		}, "2ae2d7c4cf347caf"},
	}
	sc, err := scenario.Lookup("composed")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		h, _ := sc.Build(n, scenario.Options{Crashes: c.crashes})
		env, bodies, _, reset := h()
		x := sched.NewExecutor(env, bodies)
		digest := memory.NewStateHash()
		crashed := 0
		for seed := int64(1); seed <= 16; seed++ {
			res, logW := c.run(x, seed)
			for _, ch := range res.Schedule {
				w := uint64(ch.Proc) << 1
				if ch.Crash {
					w |= 1
					crashed++
				}
				digest.Add(w + 1)
			}
			digest.Add(math.Float64bits(logW))
			digest.Add(0) // run separator
			env.Reset()
			reset()
		}
		x.Close()
		if c.crashes != (crashed > 0) {
			t.Errorf("%s: %d crash decisions over 16 seeds", c.name, crashed)
		}
		if got := fmt.Sprintf("%016x", digest.Sum()); got != c.want {
			t.Errorf("%s: stream digest %s, pinned %s", c.name, got, c.want)
		}
	}
}
