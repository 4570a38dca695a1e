package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/abstract"
	"repro/internal/consensus"
	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/tas"
)

// RunE1 measures solo step/RMW complexity of the speculative TAS modules
// against AbortableBakery consensus across n, reproducing the headline
// separation: TAS is constant in the absence of step contention while the
// best known obstruction-free consensus is linear (§1, Theorem 4 vs [6]).
func RunE1() []*Table {
	t := &Table{
		ID:    "E1",
		Title: "Solo step complexity: speculative TAS vs obstruction-free consensus",
		Claim: "TAS can be implemented in constant time and space in the absence of " +
			"contention, whereas the best known bound for obstruction-free consensus is linear (§1).",
		Columns: []string{"n", "A1 steps", "A1 RMW", "composed TAS steps", "composed TAS RMW",
			"Bakery steps", "Bakery steps/n"},
	}
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		env := memory.NewEnv(n)
		p := env.Proc(0)

		a1 := tas.NewA1()
		p.ResetCounters()
		a1.Invoke(p, spec.Request{ID: 1}, nil)
		a1Steps, a1RMW := p.Steps(), p.RMWs()

		one := tas.NewOneShot()
		p.ResetCounters()
		one.TestAndSet(p)
		compSteps, compRMW := p.Steps(), p.RMWs()

		bk := consensus.NewBakery(n)
		p.ResetCounters()
		bk.Propose(p, consensus.Bottom, 7)
		bkSteps := p.Steps()

		t.AddRow(n, a1Steps, a1RMW, compSteps, compRMW, bkSteps,
			stats.F2(float64(bkSteps)/float64(n)))
	}
	t.Notes = "Shape check: TAS columns flat in n with zero RMWs; Bakery column grows ~4n."
	return []*Table{t}
}

// RunE2 reproduces Figure 1's dynamics on the long-lived object: a
// contention sweep in which each round is either run solo-ordered (no step
// contention) or round-robin (maximal step contention). Operations served
// by A1 stay on registers; contended rounds engage A2; the winner's reset
// restores speculation for the next round.
func RunE2() []*Table {
	t := &Table{
		ID:    "E2",
		Title: "Module usage vs contention (long-lived object, 4 processes, 300 rounds)",
		Claim: "The algorithm switches forward to the hardware module under step contention " +
			"and back to the speculative module on reset (§6, Figure 1).",
		Columns: []string{"contended rounds", "ops", "served by A1", "served by A2",
			"steps/op", "RMW/op"},
	}
	const n, rounds = 4, 300
	rng := rand.New(rand.NewSource(seedFor(42)))
	for _, pct := range []int{0, 25, 50, 75, 100} {
		env := memory.NewEnv(n)
		ll := tas.NewLongLived(n)
		ll.Preallocate(env.Proc(0), rounds+2)
		env.ResetCounters()
		served := map[int]int{}
		totalOps := 0
		var stepSamples, rmwSamples []float64
		for r := 0; r < rounds; r++ {
			contended := rng.Intn(100) < pct
			modules := make([]int, n)
			winner := -1
			bodies := make([]func(p *memory.Proc), n)
			for i := 0; i < n; i++ {
				i := i
				bodies[i] = func(p *memory.Proc) {
					before, beforeR := p.Steps(), p.RMWs()
					v, mod := ll.TestAndSetTraced(p)
					modules[i] = mod
					if v == spec.Winner {
						winner = i
					}
					stepSamples = append(stepSamples, float64(p.Steps()-before))
					rmwSamples = append(rmwSamples, float64(p.RMWs()-beforeR))
				}
			}
			var strat sched.Chooser = sched.NewSolo(0, 1, 2, 3)
			if contended {
				strat = sched.NewRoundRobin()
			}
			sched.Run(env, strat, bodies)
			for _, m := range modules {
				served[m]++
				totalOps++
			}
			if winner >= 0 {
				ll.Reset(env.Proc(winner))
			}
		}
		t.AddRow(fmt.Sprintf("%d%%", pct), totalOps,
			stats.Ratio(served[0], totalOps), stats.Ratio(served[1], totalOps),
			stats.F1(stats.Summarize(stepSamples).Mean),
			stats.F2(stats.Summarize(rmwSamples).Mean))
	}
	t.Notes = "Shape check: A1 share falls and RMW/op rises with the contended fraction; " +
		"at 0% contention every op is register-only."
	return []*Table{t}
}

// RunE3 measures the cost of generic composition (§4.2 'Complexity Cost'):
// (a) the state transferred between modules — the steps an aborting process
// spends recovering and replaying the history — grows linearly with history
// length, against the semantic TAS's constant-step switch; (b) the
// universal construction's per-operation cost grows with n (snapshot
// collects), against the TAS's flat cost.
func RunE3() []*Table {
	ta := &Table{
		ID:    "E3a",
		Title: "Module-switch cost vs committed-history length (2 processes)",
		Claim: "Each process has to essentially obtain a snapshot of all previously " +
			"performed requests; with known semantics the overhead is a small constant (§1, §4.2).",
		Columns: []string{"history length H", "universal switch steps", "TAS switch steps"},
	}
	// TAS switch cost: a contended one-shot op that falls to A2, constant.
	tasSwitch := func() int64 {
		env := memory.NewEnv(2)
		o := tas.NewOneShot()
		var worst int64
		bodies := []func(p *memory.Proc){
			func(p *memory.Proc) { o.TestAndSet(p) },
			func(p *memory.Proc) { o.TestAndSet(p) },
		}
		res := sched.Run(env, sched.NewRoundRobin(), bodies)
		for _, s := range res.Steps {
			if s > worst {
				worst = s
			}
		}
		return worst
	}()
	for _, h := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		env := memory.NewEnv(2)
		o := abstract.NewObject(spec.FetchIncType{}, 2,
			abstract.StageSpec{Name: "cf", MkCons: func(int) consensus.Abortable { return consensus.NewSplitConsensus() }},
			abstract.StageSpec{Name: "wf", MkCons: func(int) consensus.Abortable { return consensus.NewCASConsensus() }},
		)
		p0 := env.Proc(0)
		// Build up H-1 committed requests solo on the contention-free stage.
		for k := 0; k < h-1; k++ {
			o.Invoke(p0, spec.Request{ID: int64(k + 1), Proc: 0, Op: spec.OpInc})
		}
		// One contended round: both processes collide, the stage aborts,
		// and both recover + replay the history into the wait-free stage.
		var switchSteps int64
		bodies := []func(p *memory.Proc){
			func(p *memory.Proc) {
				before := p.Steps()
				o.Invoke(p, spec.Request{ID: 1000, Proc: 0, Op: spec.OpInc})
				switchSteps = p.Steps() - before
			},
			func(p *memory.Proc) {
				o.Invoke(p, spec.Request{ID: 1001, Proc: 1, Op: spec.OpInc})
			},
		}
		sched.Run(env, sched.NewRoundRobin(), bodies)
		ta.AddRow(h, switchSteps, tasSwitch)
	}
	ta.Notes = "Shape check: the universal column grows linearly in H; the TAS column is constant."

	tb := &Table{
		ID:    "E3b",
		Title: "Solo per-operation steps vs n: universal construction vs semantic TAS",
		Claim: "Any wait-free universal Abstract implementation must have linear (in n) step " +
			"complexity [16]; the semantic TAS avoids it (§4.2, Proposition 2 discussion).",
		Columns: []string{"n", "universal counter steps/op", "composed TAS steps/op"},
	}
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		env := memory.NewEnv(n)
		o := abstract.NewObject(spec.FetchIncType{}, n,
			abstract.StageSpec{Name: "cf", MkCons: func(int) consensus.Abortable { return consensus.NewSplitConsensus() }},
			abstract.StageSpec{Name: "wf", MkCons: func(int) consensus.Abortable { return consensus.NewCASConsensus() }},
		)
		p := env.Proc(0)
		var samples []float64
		for k := 0; k < 20; k++ {
			before := p.Steps()
			o.Invoke(p, spec.Request{ID: int64(k + 1), Proc: 0, Op: spec.OpInc})
			samples = append(samples, float64(p.Steps()-before))
		}
		uni := stats.Summarize(samples).Mean

		oneShot := tas.NewOneShot()
		p.ResetCounters()
		oneShot.TestAndSet(p)
		tb.AddRow(n, stats.F1(uni), p.Steps())
	}
	tb.Notes = "Shape check: universal column grows with n (snapshot collects dominate); TAS flat."
	return []*Table{ta, tb}
}

// RunE4 characterizes SplitConsensus (Appendix A / [18]): constant-step
// solo commits, and abort behaviour under interleaved (interval-contended)
// schedules.
func RunE4() []*Table {
	t := &Table{
		ID:    "E4",
		Title: "SplitConsensus under controlled schedules (2 processes, 200 seeds)",
		Claim: "SplitConsensus commits with O(1) steps using only registers in the absence " +
			"of interval contention, and may abort otherwise (Appendix A).",
		Columns: []string{"schedule", "commits", "aborts", "avg steps/op", "RMW/op"},
	}
	type agg struct {
		commits, aborts int
		steps           []float64
		rmws            int64
	}
	run := func(strat func() sched.Chooser, seeds int) agg {
		var a agg
		for s := 0; s < seeds; s++ {
			env := memory.NewEnv(2)
			c := consensus.NewSplitConsensus()
			outs := make([]consensus.Outcome, 2)
			bodies := make([]func(p *memory.Proc), 2)
			for i := 0; i < 2; i++ {
				i := i
				bodies[i] = func(p *memory.Proc) {
					outs[i], _ = c.Propose(p, consensus.Bottom, int64(10+i))
				}
			}
			res := sched.Run(env, strat(), bodies)
			for i := 0; i < 2; i++ {
				if outs[i] == consensus.Commit {
					a.commits++
				} else {
					a.aborts++
				}
				a.steps = append(a.steps, float64(res.Steps[i]))
			}
			a.rmws += env.TotalRMWs()
		}
		return a
	}
	rng := rand.New(rand.NewSource(seedFor(1)))
	rows := []struct {
		name  string
		strat func() sched.Chooser
		seeds int
	}{
		{"solo (run-to-completion)", func() sched.Chooser { return sched.NewSolo(0, 1) }, 1},
		{"round-robin (interleaved)", func() sched.Chooser { return sched.NewRoundRobin() }, 1},
		{"random (200 seeds)", func() sched.Chooser { return sched.NewRandom(rng.Int63()) }, 200},
	}
	for _, r := range rows {
		a := run(r.strat, r.seeds)
		t.AddRow(r.name, a.commits, a.aborts,
			stats.F1(stats.Summarize(a.steps).Mean),
			stats.F2(float64(a.rmws)/float64(a.commits+a.aborts)))
	}
	t.Notes = "Shape check: solo schedules commit everything in ~8 steps with 0 RMWs; " +
		"interleaving produces aborts but never disagreement (tested elsewhere)."
	return []*Table{t}
}
