package sched

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/memory"
)

// readerBodies builds n bodies that each perform steps reads of their own
// private register — a harness whose interleaving tree is pure scheduling
// (no data flow), convenient for schedule-shape assertions.
func readerBodies(env *memory.Env, n, steps int) []func(p *memory.Proc) {
	regs := make([]*memory.IntReg, n)
	for i := range regs {
		regs[i] = memory.NewIntReg(0)
	}
	bodies := make([]func(p *memory.Proc), n)
	for i := 0; i < n; i++ {
		i := i
		bodies[i] = func(p *memory.Proc) {
			for s := 0; s < steps; s++ {
				regs[i].Read(p)
			}
		}
	}
	return bodies
}

// grantBlocks counts the maximal runs of consecutive grants to the same
// process in a schedule — 1 per process means no preemption at all.
func grantBlocks(schedule []Choice) int {
	blocks := 0
	last := -1
	for _, c := range schedule {
		if c.Proc != last {
			blocks++
			last = c.Proc
		}
	}
	return blocks
}

func TestPCTDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []Choice {
		env := memory.NewEnv(3)
		res := Run(env, NewPCT(seed, 3, 12, 3), readerBodies(env, 3, 4))
		return res.Schedule
	}
	if !reflect.DeepEqual(run(7), run(7)) {
		t.Fatal("same seed produced different PCT schedules")
	}
	distinct := false
	for seed := int64(1); seed <= 16; seed++ {
		if !reflect.DeepEqual(run(7), run(seed)) {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Fatal("16 PCT seeds all produced the identical schedule")
	}
}

// TestPCTPrioritySchedulingNoChangePoints: with d=1 there are no change
// points, so PCT degenerates to strict priority scheduling — every process
// runs to completion uninterrupted, in descending initial-priority order.
func TestPCTPrioritySchedulingNoChangePoints(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		env := memory.NewEnv(4)
		res := Run(env, NewPCT(seed, 4, 16, 1), readerBodies(env, 4, 4))
		if got := grantBlocks(res.Schedule); got != 4 {
			t.Fatalf("seed %d: %d grant blocks, want 4 (one solo block per process): %v",
				seed, got, res.Schedule)
		}
	}
}

// TestPCTBoundedPreemptions: d−1 change points introduce at most d−1 extra
// preemptions over the n solo blocks of pure priority scheduling.
func TestPCTBoundedPreemptions(t *testing.T) {
	const n, d = 4, 3
	for seed := int64(1); seed <= 40; seed++ {
		env := memory.NewEnv(n)
		res := Run(env, NewPCT(seed, n, 16, d), readerBodies(env, n, 4))
		if got, max := grantBlocks(res.Schedule), n+d-1; got > max {
			t.Fatalf("seed %d: %d grant blocks, want <= %d: %v", seed, got, max, res.Schedule)
		}
	}
}

// TestWalkWeightMatchesBranchingFactors: the walk's importance weight must
// be exactly the product of the parked-set sizes along its own path.
func TestWalkWeightMatchesBranchingFactors(t *testing.T) {
	env := memory.NewEnv(3)
	w := NewWalk(11)
	log := &parkedLog{Chooser: w}
	Run(env, log, readerBodies(env, 3, 3))
	want := 0.0
	for _, parked := range log.sets {
		want += math.Log(float64(len(parked)))
	}
	if diff := math.Abs(w.LogWeight() - want); diff > 1e-9 {
		t.Fatalf("LogWeight = %v, recomputed %v", w.LogWeight(), want)
	}
}

// TestWalkEstimatesLeafCount: averaging exp(LogWeight) over independent
// walks is an unbiased estimator of the leaf count; on two 2-step processes
// the tree has C(4,2) = 6 leaves.
func TestWalkEstimatesLeafCount(t *testing.T) {
	const runs = 4000
	sum := 0.0
	for seed := int64(0); seed < runs; seed++ {
		env := memory.NewEnv(2)
		w := NewWalk(seed)
		Run(env, w, readerBodies(env, 2, 2))
		sum += math.Exp(w.LogWeight())
	}
	est := sum / runs
	if est < 5.4 || est > 6.6 {
		t.Fatalf("walk leaf-count estimate = %v, want ~6", est)
	}
}

// TestRatesSkewsGrants: a 9:1 rate weight must show up in the grant
// distribution; a fresh uniform run stays near 1:1.
func TestRatesSkewsGrants(t *testing.T) {
	grantShare := func(weights []float64) float64 {
		fast := 0
		total := 0
		for seed := int64(0); seed < 200; seed++ {
			env := memory.NewEnv(2)
			log := &parkedLog{Chooser: NewRates(seed, weights)}
			res := Run(env, log, readerBodies(env, 2, 8))
			// Count only decisions where both processes were parked: rate
			// weighting is conditional on the parked set.
			for i, c := range res.Schedule {
				if len(log.sets[i]) == 2 {
					total++
					if c.Proc == 0 {
						fast++
					}
				}
			}
		}
		return float64(fast) / float64(total)
	}
	if share := grantShare([]float64{9, 1}); share < 0.8 {
		t.Fatalf("9:1 rates granted process 0 only %.2f of contended steps", share)
	}
	if share := grantShare([]float64{1, 1}); share < 0.4 || share > 0.6 {
		t.Fatalf("uniform rates granted process 0 %.2f of contended steps, want ~0.5", share)
	}
}

// TestRatesWeightFallbacks: missing and non-positive weights fall back to
// the documented defaults rather than crashing or starving a process.
func TestRatesWeightFallbacks(t *testing.T) {
	r := NewRates(1, []float64{2})
	if w := r.weight(5); w != 2 {
		t.Fatalf("process beyond weights got %v, want last weight 2", w)
	}
	r = NewRates(1, nil)
	if w := r.weight(0); w != 1 {
		t.Fatalf("empty weights got %v, want 1", w)
	}
	r = NewRates(1, []float64{-3, 0})
	if r.weight(0) != 1 || r.weight(1) != 1 {
		t.Fatal("non-positive weights must be treated as 1")
	}
	env := memory.NewEnv(3)
	res := Run(env, NewRates(3, []float64{4}), readerBodies(env, 3, 2))
	for i, fin := range res.Finished {
		if !fin {
			t.Fatalf("process %d never finished under partial weights", i)
		}
	}
}

// TestWithCrashesInjectsAndDelegates: the wrapper must crash at roughly the
// configured probability and otherwise defer to the inner strategy
// untouched (here: strict priority PCT, whose grants stay priority-ordered
// on the non-crash decisions).
func TestWithCrashesInjectsAndDelegates(t *testing.T) {
	crashes, decisions := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		env := memory.NewEnv(3)
		strat := WithCrashes(NewPCT(seed, 3, 16, 1), seed+9999, 0.25)
		res := Run(env, strat, readerBodies(env, 3, 3))
		decisions += len(res.Schedule)
		for _, c := range res.Schedule {
			if c.Crash {
				crashes++
			}
		}
	}
	got := float64(crashes) / float64(decisions)
	if got < 0.18 || got > 0.32 {
		t.Fatalf("crash fraction = %.3f, want ~0.25", got)
	}
	// p=0 must never crash and must be transparent.
	env := memory.NewEnv(3)
	wrapped := Run(env, WithCrashes(NewPCT(5, 3, 16, 1), 1, 0), readerBodies(env, 3, 3))
	env2 := memory.NewEnv(3)
	bare := Run(env2, NewPCT(5, 3, 16, 1), readerBodies(env2, 3, 3))
	if !reflect.DeepEqual(wrapped.Schedule, bare.Schedule) {
		t.Fatal("p=0 crash wrapper changed the inner schedule")
	}
}

// TestRandomCrashFrequency pins the crash-injection rate of the legacy
// sampling strategy: over many executions the fraction of crash decisions
// must track the configured probability within tolerance.
func TestRandomCrashFrequency(t *testing.T) {
	const p = 0.25
	crashes, decisions := 0, 0
	for seed := int64(0); seed < 400; seed++ {
		env := memory.NewEnv(3)
		res := Run(env, NewRandomCrash(seed, p), readerBodies(env, 3, 3))
		decisions += len(res.Schedule)
		for _, c := range res.Schedule {
			if c.Crash {
				crashes++
			}
		}
	}
	got := float64(crashes) / float64(decisions)
	if got < p-0.05 || got > p+0.05 {
		t.Fatalf("crash fraction = %.3f, want %.2f ± 0.05", got, p)
	}
}

// TestRandomCrashNoGrantAfterCrash: once the scheduler crashes a process it
// must never receive a later grant, and the result flags must agree — a
// crashed process is never Finished.
func TestRandomCrashNoGrantAfterCrash(t *testing.T) {
	sawCrash := false
	for seed := int64(0); seed < 200; seed++ {
		env := memory.NewEnv(3)
		res := Run(env, NewRandomCrash(seed, 0.3), readerBodies(env, 3, 4))
		dead := map[int]bool{}
		for _, c := range res.Schedule {
			if dead[c.Proc] {
				t.Fatalf("seed %d: process %d granted after its crash: %v", seed, c.Proc, res.Schedule)
			}
			if c.Crash {
				dead[c.Proc] = true
				sawCrash = true
			}
		}
		for i := 0; i < 3; i++ {
			if dead[i] != res.Crashed[i] {
				t.Fatalf("seed %d: Crashed[%d] = %v, schedule says %v", seed, i, res.Crashed[i], dead[i])
			}
			if res.Crashed[i] && res.Finished[i] {
				t.Fatalf("seed %d: process %d both crashed and finished", seed, i)
			}
			if !res.Crashed[i] && !res.Finished[i] {
				t.Fatalf("seed %d: surviving process %d never finished", seed, i)
			}
		}
	}
	if !sawCrash {
		t.Fatal("p=0.3 never crashed anyone in 200 executions")
	}
}

// The six seeded strategies as they were written against math/rand itself,
// over the sorted id slice: rand.NewSource per construction, rand.Perm, a
// change-point map and a priority scan in PCT.
// TestResetMatchesFreshConstruction compares the real ones, which draw from
// alfgSource and read the parked word, against these.

func refRandom(seed int64) Chooser {
	rng := rand.New(rand.NewSource(seed))
	return idFunc(func(_ int, parked []int) Choice { return Choice{Proc: parked[rng.Intn(len(parked))]} })
}

func refRandomCrash(seed int64, p float64) Chooser {
	rng := rand.New(rand.NewSource(seed))
	return idFunc(func(_ int, parked []int) Choice {
		crash := p > 0 && rng.Float64() < p
		return Choice{Proc: parked[rng.Intn(len(parked))], Crash: crash}
	})
}

func refPCT(seed int64, n, k, d int) Chooser {
	rng := rand.New(rand.NewSource(seed))
	prio := make([]int, n)
	for i, proc := range rng.Perm(n) {
		prio[proc] = d + i
	}
	change := map[int]int{}
	for i := 1; i < d; i++ {
		change[rng.Intn(k)] = d - i
	}
	highest := func(parked []int) int {
		best := parked[0]
		for _, id := range parked[1:] {
			if prio[id] > prio[best] {
				best = id
			}
		}
		return best
	}
	return idFunc(func(step int, parked []int) Choice {
		best := highest(parked)
		if v, ok := change[step]; ok {
			prio[best] = v
			best = highest(parked)
		}
		return Choice{Proc: best}
	})
}

func refRates(seed int64, weights []float64) Chooser {
	rng := rand.New(rand.NewSource(seed))
	weight := (&Rates{weights: weights}).weight
	return idFunc(func(_ int, parked []int) Choice {
		total := 0.0
		for _, id := range parked {
			total += weight(id)
		}
		x := rng.Float64() * total
		for _, id := range parked {
			if x -= weight(id); x < 0 {
				return Choice{Proc: id}
			}
		}
		return Choice{Proc: parked[len(parked)-1]}
	})
}

func refCrashes(inner Chooser, seed int64, p float64) Chooser {
	rng := rand.New(rand.NewSource(seed))
	return Func(func(step int, parked ProcSet, next []memory.Access) Choice {
		if p > 0 && rng.Float64() < p {
			list := ids(parked)
			return Choice{Proc: list[rng.Intn(len(list))], Crash: true}
		}
		return inner.Choose(step, parked, next)
	})
}

// TestResetMatchesFreshConstruction pins the reuse contract of the seeded
// strategies: a value that already ran under another seed, once Reset,
// produces exactly the schedule a freshly constructed strategy produces —
// which is what lets a sampling worker keep one strategy value for all its
// runs — and both produce the schedule of the math/rand reference above, so
// every recorded seed keeps its schedule. "pct-colliding" draws three change
// points over two step indices: the later-drawn one must win, as a map
// write would have it.
func TestResetMatchesFreshConstruction(t *testing.T) {
	const n, steps, k, d = 4, 5, 20, 3
	weights := []float64{4, 1, 1, 0.5}
	schedule := func(s Chooser) []Choice {
		env := memory.NewEnv(n)
		return Run(env, s, readerBodies(env, n, steps)).Schedule
	}
	var (
		random  Random
		crash   RandomCrash
		pct     PCT
		collide PCT
		walk    Walk
		rates   Rates
		crashes Crashes
	)
	kinds := []struct {
		name              string
		fresh, reset, ref func(seed int64) Chooser
	}{
		{"random",
			func(s int64) Chooser { return NewRandom(s) },
			func(s int64) Chooser { return random.Reset(s) },
			refRandom},
		{"random-crash",
			func(s int64) Chooser { return NewRandomCrash(s, 0.2) },
			func(s int64) Chooser { return crash.Reset(s, 0.2) },
			func(s int64) Chooser { return refRandomCrash(s, 0.2) }},
		{"pct",
			func(s int64) Chooser { return NewPCT(s, n, k, d) },
			func(s int64) Chooser { return pct.Reset(s, n, k, d) },
			func(s int64) Chooser { return refPCT(s, n, k, d) }},
		{"pct-colliding",
			func(s int64) Chooser { return NewPCT(s, n, 2, 4) },
			func(s int64) Chooser { return collide.Reset(s, n, 2, 4) },
			func(s int64) Chooser { return refPCT(s, n, 2, 4) }},
		{"walk",
			func(s int64) Chooser { return NewWalk(s) },
			func(s int64) Chooser { return walk.Reset(s) },
			refRandom},
		{"rates",
			func(s int64) Chooser { return NewRates(s, weights) },
			func(s int64) Chooser { return rates.Reset(s, weights) },
			func(s int64) Chooser { return refRates(s, weights) }},
		{"crashes",
			func(s int64) Chooser { return WithCrashes(NewRoundRobin(), s, 0.2) },
			func(s int64) Chooser { return crashes.Reset(NewRoundRobin(), s, 0.2) },
			func(s int64) Chooser { return refCrashes(NewRoundRobin(), s, 0.2) }},
	}
	for _, kind := range kinds {
		schedule(kind.reset(99)) // dirty the reused value with another seed's run
		for seed := int64(1); seed <= 32; seed++ {
			want := schedule(kind.ref(seed))
			if got := schedule(kind.fresh(seed)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: fresh value scheduled %v, math/rand reference %v", kind.name, seed, got, want)
			}
			if got := schedule(kind.reset(seed)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: reset value scheduled %v, math/rand reference %v", kind.name, seed, got, want)
			}
		}
	}
	freshWalk := NewWalk(32) // the reused walk last ran seed 32
	schedule(freshWalk)
	if got, want := walk.LogWeight(), freshWalk.LogWeight(); got != want {
		t.Fatalf("reset walk accumulated weight %v, fresh one %v", got, want)
	}
}
