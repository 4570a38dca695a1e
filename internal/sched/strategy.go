package sched

import "math/rand"

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

// Next implements Strategy.
func (r *RoundRobin) Next(_ int, parked []int) Choice {
	if !r.init {
		r.init = true
		r.last = parked[0]
		return Choice{Proc: parked[0]}
	}
	for _, id := range parked {
		if id > r.last {
			r.last = id
			return Choice{Proc: id}
		}
	}
	r.last = parked[0]
	return Choice{Proc: parked[0]}
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

// Next implements Strategy.
func (r *Random) Next(_ int, parked []int) Choice {
	return Choice{Proc: parked[r.rng.Intn(len(parked))]}
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

// Next implements Strategy.
func (r *RandomCrash) Next(_ int, parked []int) Choice {
	crash := r.p > 0 && r.rng.Float64() < r.p
	return Choice{Proc: parked[r.rng.Intn(len(parked))], Crash: crash}
}

// Solo runs processes one at a time to completion, in the given id order:
// the schedule with neither step nor interval contention at the memory
// level. Processes not in the order are run (in id order) after it.
type Solo struct {
	order []int
}

// NewSolo returns a solo strategy with the given completion order.
func NewSolo(order ...int) *Solo { return &Solo{order: order} }

// Next implements Strategy.
func (s *Solo) Next(_ int, parked []int) Choice {
	for _, id := range s.order {
		for _, pid := range parked {
			if pid == id {
				return Choice{Proc: id}
			}
		}
	}
	return Choice{Proc: parked[0]}
}

// Replay replays a recorded choice sequence, then falls back to the first
// parked process. It is how a reported failing schedule is reproduced.
type Replay struct {
	choices []Choice
}

// NewReplay returns a strategy replaying the given choices.
func NewReplay(choices []Choice) *Replay { return &Replay{choices: choices} }

// Next implements Strategy.
func (r *Replay) Next(step int, parked []int) Choice {
	if step < len(r.choices) {
		return r.choices[step]
	}
	return Choice{Proc: parked[0]}
}

// CrashAfter wraps a strategy and crashes process victim the first time it
// is parked at or after the victim's k-th granted step, exercising the
// paper's crash-failure model mid-operation.
type CrashAfter struct {
	Inner  Strategy
	Victim int
	K      int64

	granted int64
	crashed bool
}

// Next implements Strategy.
func (c *CrashAfter) Next(step int, parked []int) Choice {
	if !c.crashed && c.granted >= c.K {
		for _, id := range parked {
			if id == c.Victim {
				c.crashed = true
				return Choice{Proc: id, Crash: true}
			}
		}
	}
	ch := c.Inner.Next(step, parked)
	if ch.Proc == c.Victim && !ch.Crash {
		c.granted++
	}
	return ch
}

// Alternate interleaves two processes' steps a-b-a-b... starting with the
// lower id, producing pairwise step contention; other processes run last.
// With exactly two processes it is equivalent to round-robin but keeps the
// intent explicit in tests.
type Alternate struct{ rr RoundRobin }

// Next implements Strategy.
func (a *Alternate) Next(step int, parked []int) Choice { return a.rr.Next(step, parked) }

// Func adapts a plain function to a Strategy.
type Func func(step int, parked []int) Choice

// Next implements Strategy.
func (f Func) Next(step int, parked []int) Choice { return f(step, parked) }
