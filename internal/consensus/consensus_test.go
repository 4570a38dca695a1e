package consensus

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/sched"
)

func mk(name string, n int) Abortable {
	switch name {
	case "split":
		return NewSplitConsensus()
	case "bakery":
		return NewBakery(n)
	case "cas":
		return NewCASConsensus()
	case "chain":
		return NewChain(NewSplitConsensus(), NewBakery(n), NewCASConsensus())
	case "chain-registers":
		return NewChain(NewSplitConsensus(), NewBakery(n))
	}
	panic(name)
}

func TestSoloCommitsOwnValue(t *testing.T) {
	for _, name := range []string{"split", "bakery", "cas", "chain", "chain-registers"} {
		env := memory.NewEnv(1)
		c := mk(name, 1)
		out, v := c.Propose(env.Proc(0), Bottom, 42)
		if out != Commit || v != 42 {
			t.Fatalf("%s: solo propose = (%v, %d), want commit 42", name, out, v)
		}
		if q := c.Query(env.Proc(0)); q != 42 {
			t.Fatalf("%s: query after commit = %d", name, q)
		}
	}
}

func TestSoloInheritedValueWins(t *testing.T) {
	for _, name := range []string{"split", "bakery", "cas", "chain"} {
		env := memory.NewEnv(1)
		c := mk(name, 1)
		out, v := c.Propose(env.Proc(0), 7, 42)
		if out != Commit || v != 7 {
			t.Fatalf("%s: propose(old=7, v=42) = (%v, %d), want commit 7", name, out, v)
		}
	}
}

func TestSequentialAgreement(t *testing.T) {
	for _, name := range []string{"split", "bakery", "cas", "chain"} {
		env := memory.NewEnv(2)
		c := mk(name, 2)
		out0, v0 := c.Propose(env.Proc(0), Bottom, 10)
		out1, v1 := c.Propose(env.Proc(1), Bottom, 20)
		if out0 != Commit || out1 != Commit {
			t.Fatalf("%s: sequential proposals must commit", name)
		}
		if v0 != v1 || v0 != 10 {
			t.Fatalf("%s: disagreement: %d vs %d", name, v0, v1)
		}
	}
}

func TestSplitSoloStepComplexityConstant(t *testing.T) {
	// The SplitConsensus fast path must cost O(1) steps and no RMWs,
	// independent of n (experiment E4's flat line).
	for _, n := range []int{1, 8, 64} {
		env := memory.NewEnv(n)
		c := NewSplitConsensus()
		p := env.Proc(0)
		p.ResetCounters()
		out, _ := c.Propose(p, Bottom, 5)
		if out != Commit {
			t.Fatal("solo propose must commit")
		}
		if p.Steps() > 10 {
			t.Fatalf("n=%d: solo split-consensus took %d steps, want O(1)", n, p.Steps())
		}
		if p.RMWs() != 0 {
			t.Fatalf("split-consensus must be register-only, saw %d RMWs", p.RMWs())
		}
	}
}

func TestBakerySoloStepComplexityLinear(t *testing.T) {
	// AbortableBakery costs Θ(n) solo (collects dominate) and uses no RMWs.
	steps := map[int]int64{}
	for _, n := range []int{2, 4, 8, 16, 32} {
		env := memory.NewEnv(n)
		c := NewBakery(n)
		p := env.Proc(0)
		p.ResetCounters()
		out, _ := c.Propose(p, Bottom, 5)
		if out != Commit {
			t.Fatal("solo propose must commit")
		}
		if p.RMWs() != 0 {
			t.Fatalf("bakery must be register-only, saw %d RMWs", p.RMWs())
		}
		steps[n] = p.Steps()
	}
	// Linear growth: doubling n should roughly double steps; check loose
	// bounds 3n..6n.
	for n, s := range steps {
		if s < int64(3*n) || s > int64(6*n+8) {
			t.Fatalf("bakery solo steps for n=%d: %d, want Θ(n) in [3n, 6n+8]", n, s)
		}
	}
}

func TestCASConsensusAlwaysCommits(t *testing.T) {
	env := memory.NewEnv(4)
	c := NewCASConsensus()
	var vals [4]int64
	for i := 0; i < 4; i++ {
		out, v := c.Propose(env.Proc(i), Bottom, int64(100+i))
		if out != Commit {
			t.Fatal("CAS consensus must always commit")
		}
		vals[i] = v
	}
	for i := 1; i < 4; i++ {
		if vals[i] != vals[0] {
			t.Fatalf("disagreement: %v", vals)
		}
	}
}

// consensusHarness runs both processes proposing distinct values through a
// fresh instance and checks agreement, validity, and the ⊥-abort property
// (an abort with ⊥ implies the instance never commits).
func consensusHarness(t *testing.T, name string, stats *map[string]int) engine.Harness {
	t.Helper()
	return func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(2)
		c := mk(name, 2)
		env.Register(c.(memory.Resettable))
		outs := make([]Outcome, 2)
		vals := make([]int64, 2)
		props := []int64{10, 20}
		bodies := make([]func(p *memory.Proc), 2)
		for i := 0; i < 2; i++ {
			i := i
			bodies[i] = func(p *memory.Proc) {
				outs[i], vals[i] = c.Propose(p, Bottom, props[i])
			}
		}
		check := func(res *sched.Result) error {
			committed := []int64{}
			bottomAbort := false
			for i := 0; i < 2; i++ {
				if outs[i] == Commit {
					committed = append(committed, vals[i])
					if vals[i] != 10 && vals[i] != 20 {
						return fmt.Errorf("validity: committed %d not proposed", vals[i])
					}
				} else {
					(*stats)["abort"]++
					if vals[i] == Bottom {
						bottomAbort = true
					}
				}
			}
			for i := 1; i < len(committed); i++ {
				if committed[i] != committed[0] {
					return fmt.Errorf("agreement violated: %v", committed)
				}
			}
			if bottomAbort && len(committed) > 0 {
				return fmt.Errorf("abort with ⊥ coexists with a commit")
			}
			if len(committed) > 0 {
				if q := c.Query(env.Proc(0)); q != committed[0] {
					return fmt.Errorf("query after commit = %d, want %d", q, committed[0])
				}
			}
			(*stats)["commit"] += len(committed)
			return nil
		}
		reset := func() {
			clear(outs)
			clear(vals)
		}
		return env, bodies, check, reset
	}
}

func TestExhaustiveSplitConsensus(t *testing.T) {
	stats := map[string]int{}
	rep, err := engine.Run(consensusHarness(t, "split", &stats), engine.Config{Prune: engine.PruneSourceDPOR, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("split: %d executions (partial=%v), stats=%v", rep.Executions, rep.Partial, stats)
	if stats["commit"] == 0 || stats["abort"] == 0 {
		t.Fatalf("expected both commits and aborts across interleavings: %v", stats)
	}
}

func TestExhaustiveBakery(t *testing.T) {
	stats := map[string]int{}
	rep, err := engine.Run(consensusHarness(t, "bakery", &stats), engine.Config{Prune: engine.PruneSourceDPOR, Workers: 8, MaxExecutions: 200000})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("bakery: %d executions (partial=%v), stats=%v", rep.Executions, rep.Partial, stats)
	if stats["commit"] == 0 {
		t.Fatalf("expected commits: %v", stats)
	}
}

func TestExhaustiveCAS(t *testing.T) {
	stats := map[string]int{}
	rep, err := engine.Run(consensusHarness(t, "cas", &stats), engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if stats["abort"] != 0 {
		t.Fatalf("CAS consensus must never abort: %v", stats)
	}
	t.Logf("cas: %d executions, stats=%v", rep.Executions, stats)
}

func TestExhaustiveChainWaitFree(t *testing.T) {
	stats := map[string]int{}
	rep, err := engine.Run(consensusHarness(t, "chain", &stats), engine.Config{Prune: engine.PruneSourceDPOR, Workers: 8, MaxExecutions: 200000})
	if err != nil {
		t.Fatal(err)
	}
	if stats["abort"] != 0 {
		t.Fatalf("chain ending in CAS must never abort: %v", stats)
	}
	t.Logf("chain: %d executions (partial=%v), stats=%v", rep.Executions, rep.Partial, stats)
}

func TestRandomizedThreeProcs(t *testing.T) {
	for _, name := range []string{"split", "bakery", "chain", "chain-registers"} {
		stats := map[string]int{}
		h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
			env := memory.NewEnv(3)
			c := mk(name, 3)
			env.Register(c.(memory.Resettable))
			outs := make([]Outcome, 3)
			vals := make([]int64, 3)
			bodies := make([]func(p *memory.Proc), 3)
			for i := 0; i < 3; i++ {
				i := i
				bodies[i] = func(p *memory.Proc) {
					outs[i], vals[i] = c.Propose(p, Bottom, int64(10*(i+1)))
				}
			}
			check := func(res *sched.Result) error {
				var committed []int64
				for i := 0; i < 3; i++ {
					if outs[i] == Commit {
						committed = append(committed, vals[i])
					} else {
						stats["abort"]++
					}
				}
				for i := 1; i < len(committed); i++ {
					if committed[i] != committed[0] {
						return fmt.Errorf("%s: agreement violated: %v", name, committed)
					}
				}
				stats["commit"] += len(committed)
				return nil
			}
			reset := func() {
				clear(outs)
				clear(vals)
			}
			return env, bodies, check, reset
		}
		if _, err := engine.Sample(h, engine.SampleConfig{Samples: 1500, Seed: 99}); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: stats=%v", name, stats)
	}
}

func TestChainProposeTraced(t *testing.T) {
	env := memory.NewEnv(1)
	c := NewChain(NewSplitConsensus(), NewCASConsensus())
	out, v, stage := c.ProposeTraced(env.Proc(0), Bottom, 9)
	if out != Commit || v != 9 || stage != 0 {
		t.Fatalf("solo traced propose = (%v, %d, stage %d), want commit 9 at stage 0", out, v, stage)
	}
	if c.Stages() != 2 {
		t.Fatalf("Stages = %d", c.Stages())
	}
}

func TestChainFallsBackUnderContention(t *testing.T) {
	// Force the split stage to abort by pre-poisoning its splitter with a
	// half-finished access from another process, then verify the chain
	// still commits via the CAS stage.
	env := memory.NewEnv(2)
	split := NewSplitConsensus()
	chain := NewChain(split, NewCASConsensus())

	// Process 1 starts a propose and stalls mid-splitter. Emulate by
	// running it under a scheduler for a few steps only.
	done := make(chan struct{})
	stall := make(chan struct{})
	go func() {
		defer close(done)
		// Run p1's propose fully; concurrently p0 proposes. Outcomes must
		// agree whichever stage serves them.
		<-stall
		out, v := chain.Propose(env.Proc(1), Bottom, 21)
		if out != Commit {
			t.Errorf("chain propose p1 = %v", out)
		}
		_ = v
	}()
	close(stall)
	out, _ := chain.Propose(env.Proc(0), Bottom, 12)
	<-done
	if out != Commit {
		t.Fatalf("chain propose p0 = %v, want commit (wait-free)", out)
	}
	q0 := chain.Query(env.Proc(0))
	if q0 != 12 && q0 != 21 {
		t.Fatalf("query = %d", q0)
	}
}

func TestQueryVacant(t *testing.T) {
	env := memory.NewEnv(2)
	for _, name := range []string{"split", "bakery", "cas", "chain"} {
		c := mk(name, 2)
		if q := c.Query(env.Proc(0)); q != Bottom {
			t.Fatalf("%s: query of vacant instance = %d, want ⊥", name, q)
		}
	}
}

func TestNewChainPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewChain()
}

func TestOutcomeString(t *testing.T) {
	if Commit.String() != "commit" || Abort.String() != "abort" {
		t.Fatal("bad outcome strings")
	}
}

func TestNames(t *testing.T) {
	if NewSplitConsensus().Name() == "" || NewBakery(2).Name() == "" || NewCASConsensus().Name() == "" {
		t.Fatal("empty names")
	}
	ch := NewChain(NewSplitConsensus(), NewCASConsensus())
	if ch.Name() != "chain(split-consensus→cas-consensus)" {
		t.Fatalf("chain name = %q", ch.Name())
	}
}
