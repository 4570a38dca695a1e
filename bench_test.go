// Wall-clock benchmarks complementing the step-count experiments of
// internal/bench (one benchmark group per experiment id; see DESIGN.md's
// per-experiment index and EXPERIMENTS.md for the recorded reference run).
// These run the same algorithm code with no scheduler gates, so the
// primitives compile to raw sync/atomic operations.
package repro

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/abstract"
	"repro/internal/baseline"
	"repro/internal/consensus"
	"repro/internal/engine"
	"repro/internal/linearize"
	"repro/internal/memory"
	"repro/internal/randexp"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/tas"
	"repro/internal/trace"
)

// --- E1: solo step complexity ------------------------------------------

func BenchmarkE1_A1Solo(b *testing.B) {
	env := memory.NewEnv(1)
	p := env.Proc(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a1 := tas.NewA1()
		a1.Invoke(p, spec.Request{ID: 1}, nil)
	}
}

func BenchmarkE1_ComposedSoloCycle(b *testing.B) {
	env := memory.NewEnv(1)
	p := env.Proc(0)
	ll := tas.NewLongLived(1)
	ll.Preallocate(p, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(1<<21) == 1<<21-1 {
			ll = tas.NewLongLived(1) // each cycle consumes a round; stay under the array bound
			ll.Preallocate(p, 1)
		}
		ll.TestAndSet(p)
		ll.Reset(p)
	}
}

func benchBakerySolo(b *testing.B, n int) {
	env := memory.NewEnv(n)
	p := env.Proc(0)
	for i := 0; i < b.N; i++ {
		bk := consensus.NewBakery(n)
		bk.Propose(p, consensus.Bottom, 5)
	}
}

func BenchmarkE1_BakerySolo_n2(b *testing.B)  { benchBakerySolo(b, 2) }
func BenchmarkE1_BakerySolo_n8(b *testing.B)  { benchBakerySolo(b, 8) }
func BenchmarkE1_BakerySolo_n32(b *testing.B) { benchBakerySolo(b, 32) }

// --- E2: contended long-lived TAS ---------------------------------------

func BenchmarkE2_LongLivedContended(b *testing.B) {
	const n = 4
	env := memory.NewEnv(n)
	ll := tas.NewLongLived(n)
	ll.Preallocate(env.Proc(0), 4)
	b.SetParallelism(1)
	var wg sync.WaitGroup
	per := b.N/n + 1
	b.ResetTimer()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := env.Proc(i)
			for k := 0; k < per; k++ {
				if ll.TestAndSet(p) == spec.Winner {
					ll.Reset(p)
				}
			}
		}(i)
	}
	wg.Wait()
}

// --- E3: universal construction -----------------------------------------

func BenchmarkE3_UniversalCounterSolo(b *testing.B) {
	env := memory.NewEnv(1)
	p := env.Proc(0)
	o := abstract.NewObject(spec.FetchIncType{}, 1,
		abstract.StageSpec{Name: "cf", MkCons: func(int) consensus.Abortable { return consensus.NewSplitConsensus() }},
		abstract.StageSpec{Name: "wf", MkCons: func(int) consensus.Abortable { return consensus.NewCASConsensus() }},
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Invoke(p, spec.Request{ID: int64(i + 1), Proc: 0, Op: spec.OpInc})
	}
}

func BenchmarkE3_UniversalQueueSolo(b *testing.B) {
	env := memory.NewEnv(1)
	p := env.Proc(0)
	o := abstract.NewObject(spec.QueueType{}, 1,
		abstract.StageSpec{Name: "wf", MkCons: func(int) consensus.Abortable { return consensus.NewCASConsensus() }},
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := spec.OpEnq
		if i%2 == 1 {
			op = spec.OpDeq
		}
		o.Invoke(p, spec.Request{ID: int64(i + 1), Proc: 0, Op: op, Arg: int64(i)})
	}
}

func BenchmarkE3_UniversalCounterContended4(b *testing.B) {
	const n = 4
	env := memory.NewEnv(n)
	o := abstract.NewObject(spec.FetchIncType{}, n,
		abstract.StageSpec{Name: "cf", MkCons: func(int) consensus.Abortable { return consensus.NewSplitConsensus() }},
		abstract.StageSpec{Name: "wf", MkCons: func(int) consensus.Abortable { return consensus.NewCASConsensus() }},
	)
	per := b.N/n + 1
	var wg sync.WaitGroup
	b.ResetTimer()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := env.Proc(i)
			for k := 0; k < per; k++ {
				o.Invoke(p, spec.Request{ID: int64(i*per + k + 1), Proc: i, Op: spec.OpInc})
			}
		}(i)
	}
	wg.Wait()
}

// --- E4/E5: abortable consensus -----------------------------------------

func BenchmarkE4_SplitConsensusSolo(b *testing.B) {
	env := memory.NewEnv(1)
	p := env.Proc(0)
	for i := 0; i < b.N; i++ {
		c := consensus.NewSplitConsensus()
		c.Propose(p, consensus.Bottom, 5)
	}
}

func BenchmarkE5_ChainSolo(b *testing.B) {
	env := memory.NewEnv(1)
	p := env.Proc(0)
	for i := 0; i < b.N; i++ {
		c := consensus.NewChain(consensus.NewSplitConsensus(), consensus.NewCASConsensus())
		c.Propose(p, consensus.Bottom, 5)
	}
}

// --- E6: lock flavours, uncontended reacquisition ------------------------

func BenchmarkE6_SpeculativeTASLock(b *testing.B) {
	env := memory.NewEnv(1)
	p := env.Proc(0)
	ll := tas.NewLongLived(1)
	ll.Preallocate(p, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(1<<21) == 1<<21-1 {
			ll = tas.NewLongLived(1)
			ll.Preallocate(p, 1)
		}
		ll.TestAndSet(p)
		ll.Reset(p)
	}
}

func BenchmarkE6_BiasedLock(b *testing.B) {
	env := memory.NewEnv(1)
	p := env.Proc(0)
	l := baseline.NewBiasedLock(1)
	l.Lock(p)
	l.Unlock(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Lock(p)
		l.Unlock(p)
	}
}

func BenchmarkE6_TTASLock(b *testing.B) {
	env := memory.NewEnv(1)
	p := env.Proc(0)
	l := baseline.NewTTASLock()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Lock(p)
		l.Unlock(p)
	}
}

func BenchmarkE6_HardwareTASCycle(b *testing.B) {
	env := memory.NewEnv(1)
	p := env.Proc(0)
	hw := baseline.NewHardwareLongLived(1)
	hw.Preallocate(p, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(1<<21) == 1<<21-1 {
			hw = baseline.NewHardwareLongLived(1)
			hw.Preallocate(p, 1)
		}
		hw.TestAndSet(p)
		hw.Reset(p)
	}
}

// --- E7: consensus from an Abstract --------------------------------------

func BenchmarkE7_ConsensusFromAbstract4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		const n = 4
		env := memory.NewEnv(n)
		o := abstract.NewObject(spec.QueueType{}, n,
			abstract.StageSpec{Name: "wf", MkCons: func(int) consensus.Abortable { return consensus.NewCASConsensus() }},
		)
		var wg sync.WaitGroup
		for j := 0; j < n; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				m := spec.Request{ID: int64(i*n + j + 1), Proc: j, Op: spec.OpEnq, Arg: int64(j)}
				_, _ = abstract.DecideFirstWins(o, env.Proc(j), m)
			}(j)
		}
		wg.Wait()
	}
}

// --- E8: solo-fast variant ------------------------------------------------

func BenchmarkE8_SoloFastSoloCycle(b *testing.B) {
	env := memory.NewEnv(1)
	p := env.Proc(0)
	ll := tas.NewSoloFastLongLived(1)
	ll.Preallocate(p, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(1<<21) == 1<<21-1 {
			ll = tas.NewSoloFastLongLived(1)
			ll.Preallocate(p, 1)
		}
		ll.TestAndSet(p)
		ll.Reset(p)
	}
}

// --- E9: ablations / speculative fetch-and-increment ----------------------

func BenchmarkE9_SpecFetchIncSolo(b *testing.B) {
	env := memory.NewEnv(1)
	p := env.Proc(0)
	s := tas.NewSpecFetchInc()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Inc(p)
	}
}

func BenchmarkE9_SpecFetchIncContended(b *testing.B) {
	const n = 4
	env := memory.NewEnv(n)
	s := tas.NewSpecFetchInc()
	per := b.N/n + 1
	var wg sync.WaitGroup
	b.ResetTimer()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := env.Proc(i)
			for k := 0; k < per; k++ {
				s.Inc(p)
			}
		}(i)
	}
	wg.Wait()
}

func BenchmarkE9_HardwareFetchInc(b *testing.B) {
	env := memory.NewEnv(1)
	p := env.Proc(0)
	c := memory.NewFetchInc(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc(p)
	}
}

// --- Gate protocol --------------------------------------------------------

// BenchmarkExecutorDecision prices one scheduler decision on a bare
// sched.Executor (four processes, 64 private reads each, no engine around
// it) under three schedules, so the protocol's separate costs are visible:
// self — lowest parked id first, so all but four decisions of a run grant
// the decider itself and switch nothing; handoff — round-robin, so every
// decision resumes another process (two coroutine switches); crash — every
// decision a crash grant, the drain an abandoned attempt performs (a handoff
// plus a panic/recover unwind; a run is only four decisions, so the per-run
// start-up is in the figure too). The memory step itself (≈ 40 ns gated) is
// part of each granted decision.
func BenchmarkExecutorDecision(b *testing.B) {
	const n, reads = 4, 64
	env := memory.NewEnv(n)
	bodies := make([]func(p *memory.Proc), n)
	for i := range bodies {
		r := memory.NewIntReg(0)
		bodies[i] = func(p *memory.Proc) {
			for k := 0; k < reads; k++ {
				r.Read(p)
			}
		}
	}
	last := 0
	for _, c := range []struct {
		name string
		next sched.Func
	}{
		{"self", func(_ int, parked []int) sched.Choice { return sched.Choice{Proc: parked[0]} }},
		{"handoff", func(_ int, parked []int) sched.Choice {
			next := parked[0]
			for _, id := range parked {
				if id > last {
					next = id
					break
				}
			}
			last = next
			return sched.Choice{Proc: next}
		}},
		{"crash", func(_ int, parked []int) sched.Choice { return sched.Choice{Proc: parked[0], Crash: true} }},
	} {
		b.Run(c.name, func(b *testing.B) {
			x := sched.NewExecutor(env, bodies)
			defer x.Close()
			var s sched.Strategy = c.next
			b.ReportAllocs()
			decisions := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				decisions += len(x.RunStrategy(s).Schedule)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(decisions), "ns/decision")
		})
	}
}

// --- Engine attempt path -------------------------------------------------

// BenchmarkEngineAttempt measures one attempt of the exhaustive engine
// (run → race analysis → check → reset) and one sampled run of the seeded
// sampler, the two paths the allocation budget in internal/engine pins. One
// iteration is a whole fixed-size unit — the composed n=3 source-DPOR walk
// (1991 attempts) or a 2000-seed PCT batch on composed n=8 — and the
// per-attempt figures are reported as custom metrics alongside the
// per-unit ns/op, B/op and allocs/op.
func BenchmarkEngineAttempt(b *testing.B) {
	sc, err := scenario.Lookup("composed")
	if err != nil {
		b.Fatal(err)
	}
	perAttempt := func(b *testing.B, unit func() int) {
		b.ReportAllocs()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		attempts := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			attempts += unit()
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(attempts), "ns/attempt")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(attempts), "allocs/attempt")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(attempts), "B/attempt")
	}
	b.Run("exhaustive", func(b *testing.B) {
		h, _ := sc.Build(3, scenario.Options{})
		perAttempt(b, func() int {
			rep, err := engine.Run(h, engine.Config{Prune: engine.PruneSourceDPOR, Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			return rep.Attempts
		})
	})
	b.Run("sampled", func(b *testing.B) {
		h, _ := sc.Build(8, scenario.Options{})
		cfg := randexp.Config{Sampler: randexp.SamplerPCT, PCTDepth: 3, Samples: 2000, Seed: 1, Workers: 1}
		perAttempt(b, func() int {
			rep, err := randexp.Run(h, cfg)
			if err != nil {
				b.Fatal(err)
			}
			return rep.Executions
		})
	})
}

// --- Strategy reseeding ---------------------------------------------------

// BenchmarkReseed prices what a sampling worker pays per run to re-arm its
// strategy: Reset plus the draws the run makes. The seeded strategies draw
// from sched's lazily filled source, whose Seed is O(1) and whose state
// words are computed on first touch, so the cost follows the draws — ten for
// a PCT sample of composed n=8 (8 priorities + 2 change points, k=73 as
// tascheck probes it), one per decision for a walk. The 2000-draw case
// (sched.Random: one Intn per decision, nothing else) touches all 607 words
// several times over and stands beside math/rand's own source doing the same
// work — eager 607-word seeding, then 2000 Intn — to show the lazy fill
// costs no more than the warm-up it replaces even when nothing is saved.
func BenchmarkReseed(b *testing.B) {
	parked := []int{0, 1, 2, 3, 4, 5, 6, 7}
	perReset := func(b *testing.B, reset func(seed int64)) {
		for i := 0; i < b.N; i++ {
			reset(int64(i))
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/reset")
	}
	b.Run("pct-n8-d3", func(b *testing.B) {
		var pct sched.PCT
		perReset(b, func(seed int64) { reseedSink += pct.Reset(seed, 8, 73, 3).Next(0, parked).Proc })
	})
	b.Run("walk-100", func(b *testing.B) {
		var w sched.Walk
		perReset(b, func(seed int64) {
			w.Reset(seed)
			for d := 0; d < 100; d++ {
				reseedSink += w.Next(d, parked).Proc
			}
		})
	})
	draw2000 := func(s sched.Strategy) {
		for d := 0; d < 2000; d++ {
			reseedSink += s.Next(d, parked).Proc
		}
	}
	b.Run("random-2000", func(b *testing.B) {
		var r sched.Random
		perReset(b, func(seed int64) { draw2000(r.Reset(seed)) })
	})
	b.Run("mathrand-eager-2000", func(b *testing.B) {
		r := rand.New(rand.NewSource(0))
		uniform := sched.Func(func(_ int, parked []int) sched.Choice {
			return sched.Choice{Proc: parked[r.Intn(len(parked))]}
		})
		perReset(b, func(seed int64) {
			r.Seed(seed)
			draw2000(uniform)
		})
	})
}

// reseedSink keeps BenchmarkReseed's draws observable.
var reseedSink int

// --- linearizability checker: per-object composition --------------------

var linObjects = map[string]spec.Type{"tas": spec.TASType{}, "fai": spec.FetchIncType{}}

// smallTASFAIHistory is the history the exhaustive tier checks once per
// execution of the tasfai scenario at n=4: every process races the one-shot
// test-and-set, then takes two tickets — 12 operations over two objects,
// all invocations of a phase overlapping.
func smallTASFAIHistory() []trace.Op {
	var ops []trace.Op
	stamp, ticket := int64(0), int64(0)
	add := func(proc int, id int64, mod, op string, resp, inv, ret int64) {
		ops = append(ops, trace.Op{Proc: proc, Module: mod, Inv: inv, Ret: ret, Resp: resp,
			Req: spec.Request{ID: id, Proc: proc, Op: op}})
	}
	for p := 0; p < 4; p++ {
		resp := spec.Loser
		if p == 0 {
			resp = spec.Winner
		}
		add(p, int64(3*p+1), "tas", spec.OpTAS, resp, int64(p), int64(10+p))
	}
	stamp = 20
	for k := int64(2); k <= 3; k++ {
		for p := 0; p < 4; p++ {
			add(p, int64(3*p)+k, "fai", spec.OpInc, ticket, stamp, stamp+1)
			ticket++
			stamp += 2
		}
	}
	return ops
}

// wideHistory is the repo benchmark's lin-wide-1m generator (benchmark/
// workload_lin.go, copied because that module is not importable from
// here): a seeded composed test-and-set + fetch-and-increment history,
// linearizable by construction, stamps jittered by up to 7 around twice
// the commit index over 64 processes, a forced quiescent cut every 192
// commits — windows of about 511 operations and 512 configurations.
func wideHistory(seed int64, total int) []trace.Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]trace.Op, 0, total)
	base, faiNext := int64(0), int64(0)
	tasSet := false
	for k := 0; k < total; k++ {
		if k%192 == 0 {
			base += 64
		}
		commit := base + int64(2*k)
		o := trace.Op{Proc: k % 64, Inv: commit - rng.Int63n(7), Ret: commit + rng.Int63n(7)}
		o.Req = spec.Request{ID: int64(k + 1), Proc: o.Proc}
		if k%2 == 0 {
			o.Module, o.Req.Op, o.Resp = "fai", spec.OpInc, faiNext
			faiNext++
		} else {
			o.Module, o.Req.Op, o.Resp = "tas", spec.OpTAS, spec.Loser
			if !tasSet {
				o.Resp, tasSet = spec.Winner, true
			}
		}
		ops = append(ops, o)
	}
	return ops
}

func benchCheckObjects(b *testing.B, ops []trace.Op) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, st, err := linearize.CheckObjects(linObjects, ops, linearize.JITConfig{})
		if err != nil || !res.Ok || st.Ops != int64(len(ops)) {
			b.Fatalf("ok=%v (%s) ops=%d err=%v", res.Ok, res.Reason, st.Ops, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ops)), "ns/histop")
}

// BenchmarkCheckObjectsSmall prices the per-execution oracle call of the
// model-checking tier: it must stay on the caller's goroutine and must not
// pay for the machinery that makes the wide case fast.
func BenchmarkCheckObjectsSmall(b *testing.B) { benchCheckObjects(b, smallTASFAIHistory()) }

// BenchmarkCheckObjectsWide is lin-wide-1m at 2^16 operations: sort,
// segment solve, memoization and interning on windows of about 511.
func BenchmarkCheckObjectsWide(b *testing.B) { benchCheckObjects(b, wideHistory(1, 1<<16)) }
