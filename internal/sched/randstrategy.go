package sched

import (
	"math"
	"math/rand"
)

// This file holds the randomized sampling strategies the randexp subsystem
// drives: the PCT priority scheduler, the weighted uniform random walk, and
// the configurable stochastic (rate-weighted) scheduler, plus the generic
// crash-injection wrapper. They complement the plain Random/RandomCrash
// strategies: where those sample with no structure, these encode the two
// scheduler models the papers around this reproduction argue for — a
// probabilistic adversary with a bug-finding guarantee (PCT), and a
// stochastic scheduler with per-process rates ("Are Lock-Free Concurrent
// Algorithms Practically Wait-Free?").

// PCT is the probabilistic concurrency testing scheduler of Burckhardt,
// Kothari, Musuvathi and Nagarakatte (ASPLOS 2010), adapted to the parked-
// process model: each process draws a distinct initial priority at least d,
// the highest-priority parked process runs at every decision, and at d−1
// randomly placed step indices (the priority change points) the process
// about to run has its priority dropped below every initial one.
//
// The guarantee: a bug of depth d — one requiring d specific ordering
// constraints among the schedule's events — is triggered with probability at
// least 1/(n·k^(d−1)) per run, where n is the number of processes and k the
// schedule-length bound the change points were drawn from. That is the
// per-run floor regardless of how rare the bug is under uniform sampling,
// which is what makes PCT the default sampler for adversarial, rare-
// interleaving scenarios (uniform random walks advance all processes at
// statistically similar rates, so orderings that need one process to lag far
// behind another are exponentially unlikely under them).
//
// A PCT value is single-run state: construct a fresh one per sampled
// execution.
type PCT struct {
	rng    *rand.Rand  // construction-time draws only; kept for Reset
	perm   []int       // construction-time scratch; kept for Reset
	prio   []int       // current priority per process id; higher runs first
	change []pctChange // the d−1 change points, in draw order
}

// pctChange is one priority change point: at decision step the would-be
// runner drops to prio. There are d−1 of them in draw order, so a linear
// scan beats a map on every decision; where two collide on one step the
// later-drawn one applies.
type pctChange struct{ step, prio int }

// NewPCT returns a PCT strategy for n processes with schedule-length bound
// k and depth d, seeded deterministically. d < 1 is treated as 1 (pure
// priority scheduling, no change points); k < 1 as 1. When two of the d−1
// change points collide on the same step index only one applies, matching
// the with-replacement sampling of the original algorithm.
func NewPCT(seed int64, n, k, d int) *PCT { return new(PCT).Reset(seed, n, k, d) }

// Reset re-arms p for a new run, as NewPCT(seed, n, k, d) would construct
// it, reusing the generator, the priority table and the change-point list.
func (p *PCT) Reset(seed int64, n, k, d int) *PCT {
	if d < 1 {
		d = 1
	}
	if k < 1 {
		k = 1
	}
	p.rng = reseed(p.rng, seed)
	if cap(p.prio) < n {
		p.prio, p.perm = make([]int, n), make([]int, n)
	}
	p.prio, p.perm = p.prio[:n], p.perm[:n]
	p.change = p.change[:0]
	// rand.Perm, drawn into the reused buffer: the same generator calls in
	// the same order, so a seed's schedule is what it always was. (Stale
	// entries are harmless: perm[i] is only ever read after being written,
	// except at j == i where the read value is overwritten at once.)
	for i := 0; i < n; i++ {
		j := p.rng.Intn(i + 1)
		p.perm[i] = p.perm[j]
		p.perm[j] = i
	}
	for i, proc := range p.perm {
		p.prio[proc] = d + i // distinct initial priorities, all >= d
	}
	for i := 1; i < d; i++ {
		p.change = append(p.change, pctChange{step: p.rng.Intn(k), prio: d - i}) // all < d
	}
	return p
}

// Next implements Strategy: run the highest-priority parked process,
// lowering the would-be runner's priority first when this step is a change
// point.
func (p *PCT) Next(step int, parked []int) Choice {
	best := p.highest(parked)
	for i := len(p.change) - 1; i >= 0; i-- {
		if p.change[i].step == step {
			p.prio[best] = p.change[i].prio
			return Choice{Proc: p.highest(parked)}
		}
	}
	return Choice{Proc: best}
}

func (p *PCT) highest(parked []int) int {
	best := parked[0]
	for _, id := range parked[1:] {
		if p.prio[id] > p.prio[best] {
			best = id
		}
	}
	return best
}

// Walk samples uniformly among parked processes, like Random, but
// additionally accumulates the walk's importance weight: the product of the
// branching factors (parked-set sizes) at every decision. Uniform per-step
// choice does not sample leaves of the interleaving tree uniformly — a leaf
// behind low-branching decisions is exponentially more likely than one
// behind high-branching ones — and the weight corrects exactly for that
// bias: exp(LogWeight) is 1/P(path), so for any function f over leaves,
// weight·f(leaf) is an unbiased estimator of the sum of f over all leaves
// (Knuth's 1975 tree-estimation argument). With f ≡ 1, averaging
// exp(LogWeight) over independent walks estimates the total number of
// interleavings — the coverage denominator no exhaustive count provides at
// large n.
//
// A Walk is single-run state: construct a fresh one per sampled execution
// and read LogWeight after the run. Crash decisions injected by a wrapper
// bypass Next, which invalidates the estimator (crashes change which tree
// is being walked mid-path); randexp reports no estimate under crash
// injection.
type Walk struct {
	rng  *rand.Rand
	logW float64
}

// NewWalk returns a fresh uniform random walk with the given seed.
func NewWalk(seed int64) *Walk { return new(Walk).Reset(seed) }

// Reset re-arms w for a new run, as NewWalk(seed) would construct it.
func (w *Walk) Reset(seed int64) *Walk {
	w.rng = reseed(w.rng, seed)
	w.logW = 0
	return w
}

// Next implements Strategy.
func (w *Walk) Next(_ int, parked []int) Choice {
	w.logW += math.Log(float64(len(parked)))
	return Choice{Proc: parked[w.rng.Intn(len(parked))]}
}

// LogWeight returns the log of the walk's importance weight so far: the sum
// of log branching factors over the decisions taken.
func (w *Walk) LogWeight() float64 { return w.logW }

// Rates is the configurable stochastic scheduler: at each decision a parked
// process is granted with probability proportional to its rate weight. It
// models the stochastic-scheduler view under which lock-free algorithms are
// "practically wait-free": a real scheduler is not an adversary but a
// random process with (possibly skewed) per-process rates, and behaviour
// under it is a distribution, not a worst case. Uniform weights reduce to
// Random; skewed weights (one fast process, stragglers) reach the
// slow-process orderings that uniform sampling almost never produces.
type Rates struct {
	rng     *rand.Rand
	weights []float64
}

// NewRates returns a rate-weighted strategy. weights[i] is process i's
// rate; processes beyond len(weights) use the last weight, and an empty or
// non-positive weight is treated as 1, so any prefix of weights is a valid
// configuration.
func NewRates(seed int64, weights []float64) *Rates { return new(Rates).Reset(seed, weights) }

// Reset re-arms r for a new run, as NewRates(seed, weights) would construct
// it.
func (r *Rates) Reset(seed int64, weights []float64) *Rates {
	r.rng = reseed(r.rng, seed)
	r.weights = weights
	return r
}

func (r *Rates) weight(id int) float64 {
	w := 1.0
	if len(r.weights) > 0 {
		if id < len(r.weights) {
			w = r.weights[id]
		} else {
			w = r.weights[len(r.weights)-1]
		}
	}
	if w <= 0 {
		return 1
	}
	return w
}

// Next implements Strategy.
func (r *Rates) Next(_ int, parked []int) Choice {
	total := 0.0
	for _, id := range parked {
		total += r.weight(id)
	}
	x := r.rng.Float64() * total
	for _, id := range parked {
		x -= r.weight(id)
		if x < 0 {
			return Choice{Proc: id}
		}
	}
	return Choice{Proc: parked[len(parked)-1]}
}

// Crashes wraps any strategy with seeded crash injection: at each
// decision, with probability p, a uniformly chosen parked process is
// crashed instead of consulting the inner strategy. It generalizes
// RandomCrash (which is Crashes over Random, drawn from one stream) to the
// structured samplers, whose own decision state must not be perturbed by
// crash draws.
type Crashes struct {
	inner Strategy
	rng   *rand.Rand
	p     float64
}

// WithCrashes returns inner wrapped with crash injection of probability p,
// its crash draws seeded by seed.
func WithCrashes(inner Strategy, seed int64, p float64) *Crashes {
	return new(Crashes).Reset(inner, seed, p)
}

// Reset re-arms c for a new run, as WithCrashes(inner, seed, p) would
// construct it.
func (c *Crashes) Reset(inner Strategy, seed int64, p float64) *Crashes {
	c.inner = inner
	c.rng = reseed(c.rng, seed)
	c.p = p
	return c
}

// Next implements Strategy.
func (c *Crashes) Next(step int, parked []int) Choice {
	if c.p > 0 && c.rng.Float64() < c.p {
		return Choice{Proc: parked[c.rng.Intn(len(parked))], Crash: true}
	}
	return c.inner.Next(step, parked)
}
