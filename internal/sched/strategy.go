package sched

import (
	"math/rand"

	"repro/internal/memory"
)

// RoundRobin grants steps to parked processes cyclically: at each decision
// it picks the smallest parked id strictly greater than the last granted id
// (wrapping around). This produces maximal step contention: every process's
// operation observes every other process taking steps.
type RoundRobin struct {
	last int
	init bool
}

// NewRoundRobin returns a fresh round-robin strategy.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Choose implements Chooser.
func (r *RoundRobin) Choose(_ int, parked ProcSet, _ []memory.Access) Choice {
	id := parked.Min()
	if r.init {
		// 2<<63 wraps to 0, so after id 63 nothing is above: wrap around.
		if above := parked &^ (2<<uint(r.last) - 1); above != 0 {
			id = above.Min()
		}
	}
	r.init, r.last = true, id
	return Choice{Proc: id}
}

// reseed returns a generator positioned at the start of seed's stream: r
// itself, re-seeded, or a new one when r is nil. Every seeded strategy is
// single-run state with a Reset method built on it, so a sampling worker
// keeps one strategy value and resets it per run — drawing exactly the
// stream a freshly constructed strategy would — instead of allocating a
// generator per sampled execution. The stream is math/rand's for that seed
// (alfgSource reproduces it bit for bit); re-seeding costs O(1) plus the
// words the run goes on to draw, not math/rand's 607-word warm-up.
func reseed(r *rand.Rand, seed int64) *rand.Rand {
	if r == nil {
		return rand.New(newALFGSource(seed))
	}
	r.Seed(seed)
	return r
}

// Random picks uniformly among parked processes using a seeded source, so
// randomized stress schedules are reproducible.
type Random struct {
	rng *rand.Rand
}

// NewRandom returns a random strategy with the given seed.
func NewRandom(seed int64) *Random { return new(Random).Reset(seed) }

// Reset re-arms r for a new run, as NewRandom(seed) would construct it.
func (r *Random) Reset(seed int64) *Random {
	r.rng = reseed(r.rng, seed)
	return r
}

// Choose implements Chooser.
func (r *Random) Choose(_ int, parked ProcSet, _ []memory.Access) Choice {
	return Choice{Proc: parked.Nth(r.rng.Intn(parked.Len()))}
}

// RandomCrash is Random with seeded crash injection: at each decision it
// crashes a uniformly chosen parked process with probability p, and
// otherwise grants a uniformly chosen parked process a step. It samples the
// same branch space that engine.Run covers with Crashes set (every
// decision point offers one step branch and one crash branch per parked
// process). p is a knob rather than the uniform 1/2 over branch kinds
// because uniform sampling would crash half the decisions and drown the
// long, mostly-live executions in all-crash ones.
type RandomCrash struct {
	rng *rand.Rand
	p   float64
}

// NewRandomCrash returns a random strategy with the given seed that crashes
// a parked process with probability p at every decision.
func NewRandomCrash(seed int64, p float64) *RandomCrash { return new(RandomCrash).Reset(seed, p) }

// Reset re-arms r for a new run, as NewRandomCrash(seed, p) would construct
// it.
func (r *RandomCrash) Reset(seed int64, p float64) *RandomCrash {
	r.rng = reseed(r.rng, seed)
	r.p = p
	return r
}

// Choose implements Chooser.
func (r *RandomCrash) Choose(_ int, parked ProcSet, _ []memory.Access) Choice {
	crash := r.p > 0 && r.rng.Float64() < r.p
	return Choice{Proc: parked.Nth(r.rng.Intn(parked.Len())), Crash: crash}
}

// Solo runs processes one at a time to completion, in the given id order:
// the schedule with neither step nor interval contention at the memory
// level. Processes not in the order are run (in id order) after it.
type Solo struct {
	order []int
}

// NewSolo returns a solo strategy with the given completion order.
func NewSolo(order ...int) *Solo { return &Solo{order: order} }

// Choose implements Chooser.
func (s *Solo) Choose(_ int, parked ProcSet, _ []memory.Access) Choice {
	for _, id := range s.order {
		if parked.Has(id) {
			return Choice{Proc: id}
		}
	}
	return Choice{Proc: parked.Min()}
}

// Replay replays a recorded choice sequence, then falls back to the first
// parked process. It is how a reported failing schedule is reproduced.
type Replay struct {
	choices []Choice
}

// NewReplay returns a strategy replaying the given choices.
func NewReplay(choices []Choice) *Replay { return &Replay{choices: choices} }

// Choose implements Chooser.
func (r *Replay) Choose(step int, parked ProcSet, _ []memory.Access) Choice {
	if step < len(r.choices) {
		return r.choices[step]
	}
	return Choice{Proc: parked.Min()}
}

// CrashAfter wraps a strategy and crashes process victim the first time it
// is parked at or after the victim's k-th granted step, exercising the
// paper's crash-failure model mid-operation.
type CrashAfter struct {
	Inner  Chooser
	Victim int
	K      int64

	granted int64
	crashed bool
}

// Choose implements Chooser.
func (c *CrashAfter) Choose(step int, parked ProcSet, next []memory.Access) Choice {
	if !c.crashed && c.granted >= c.K && parked.Has(c.Victim) {
		c.crashed = true
		return Choice{Proc: c.Victim, Crash: true}
	}
	ch := c.Inner.Choose(step, parked, next)
	if ch.Proc == c.Victim && !ch.Crash {
		c.granted++
	}
	return ch
}

// Alternate interleaves two processes' steps a-b-a-b... starting with the
// lower id, producing pairwise step contention; other processes run last.
// With exactly two processes it is equivalent to round-robin but keeps the
// intent explicit in tests.
type Alternate struct{ RoundRobin }
