// Package engine is the model-checking engine. It has two entry points
// over one execution core: Run, the exhaustive frontier walk, and Sample,
// seeded sampling from a scheduler distribution (random, PCT, walk, rates)
// past exhaustive reach. Both share the worker pool, the one harness
// lifecycle (construct once per worker, re-run through a pooled executor,
// reset between executions), deterministic merging (lex-least canonical
// failures for walks, seed-order batch merges for sampling) and the single
// CheckError type every checking path reports failures through; the
// budgets, the checkpoint frontier and the state cache are the walk's own.
//
// # Exhaustive walks
//
// Because an execution under a sched gate is fully determined by the
// sequence of scheduler choices, the space of executions is a tree: each
// node is a decision point with one branch per parked process (plus,
// optionally, one crash branch per parked process). Run performs a
// stateless walk of that tree by re-running the system from scratch with
// successive choice prefixes, organized as a work queue of frontier
// prefixes executed by a pool of workers. Each worker owns a reusable
// execution core: the harness registers its shared objects and returns a
// reset, is constructed once per worker and is re-run over the same
// memory.Env through a pooled sched.Executor, with Env.Reset plus the
// harness reset between executions.
//
// # Pruning
//
// Config.Prune selects the partial-order reduction:
//
//   - PruneNone visits every interleaving — the seed engine's semantics,
//     kept as the compatibility anchor (9662 executions for A1 n=2).
//   - PruneSleep is the legacy PR1 mode: Godefroid-style sleep sets over
//     the independence relation induced by the access metadata the memory
//     layer reports through the gate. Every sibling branch of every
//     decision point is still enqueued, minus the sleeping ones.
//   - PruneSourceDPOR is source-DPOR-style conflict-driven backtracking
//     (Abdulla, Aronis, Jonsson, Sagonas): each decision point initially
//     explores a single branch, and alternative branches are enqueued only
//     when a completed execution exhibits a reversible race whose reversal
//     is not already covered — detected by a vector-clock happens-before
//     analysis of the executed trace — with sleep sets layered on top
//     exactly as in the legacy mode. Crash branches carry no accesses (they
//     race with nothing), so with Config.Crashes they are enqueued eagerly
//     as in the legacy mode and collapsed by sleep sets.
//
// Both pruned modes preserve the set of reachable terminal states and any
// property invariant under swapping adjacent independent steps; properties
// sensitive to the real-time order of concurrent high-level events may lose
// individual witnesses (never gain false ones). Checks that need every
// interleaving verbatim should run PruneNone.
//
// # Determinism contract
//
// A Report's fields divide into two classes, documented per field:
//
//   - Deterministic fields — the verdict (whether any check failed), the
//     execution count of a completed walk, the terminal-state coverage
//     set, and MaxDepth — are identical for every Config.Workers value on
//     any completed (non-Partial) run, including shared-cache
//     (CacheStates) runs and source-DPOR runs (sole exception: Executions
//     under CacheStates with Workers > 1).
//   - Advisory fields — Attempts, Pruned, CacheHits and Backtracks — may
//     vary with worker scheduling under CacheStates or PruneSourceDPOR:
//     which of two equal-state nodes is claimed first, or which of two
//     runs discovers a race first, is timing-dependent. At Workers = 1
//     every field is deterministic.
//
// Check failures are merged deterministically: the walk finishes and
// returns the lexicographically least failing schedule in canonical branch
// order — exactly the schedule a sequential depth-first engine would have
// failed on first (under source-DPOR with Workers > 1, the reported
// representative of a failing behaviour may vary; its existence may not).
// Set FailFast to trade that for an early exit.
package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Harness builds one instance of the system under test: a new environment,
// one body per process, a predicate checked on the resulting execution, and
// a reset.
//
// An instance is reused: the engine constructs one per worker, runs its
// bodies through a pooled sched.Executor, and between executions calls
// env.Reset() followed by reset(). The harness must therefore (a) register
// every shared object the bodies touch with env.Register — env.Reset only
// restores registered objects — and (b) restore all harness-local state
// (recorders, outcome slices) in reset, so that each execution starts from
// the construction state; a harness with no such state returns a no-op, and
// a nil reset is rejected (ErrNilReset). Under Run, a harness that misses
// state is detected by the engine's nondeterminism check (a recorded
// transition fails to replay) rather than silently corrupting the walk; the
// sampling path replays nothing and has no such net, so it relies on the
// reset being complete (the replay relation of TestRegistryDifferential
// re-runs every registered scenario's checked executions on fresh instances
// to certify it). reset must touch only instance-local state; the engine
// calls it under the same lock as check.
//
// With Workers > 1, process bodies from different executions run
// concurrently, but harness construction and check calls are serialized by
// the engine, so a harness may safely accumulate into shared state captured
// outside the closure (outcome histograms and the like) from its
// constructor and its check function.
//
// A constructor, body, check or reset that panics does not take the process
// down: the worker that ran it recovers, the walk (or sampling run) stops,
// and Run (or Sample) returns an error naming the closure, the panic value,
// the process for a body, and the schedule that led there (none for a
// constructor).
type Harness func() (env *memory.Env, bodies []func(p *memory.Proc), check func(res *sched.Result) error, reset func())

// PruneMode selects the partial-order reduction of an exhaustive walk.
type PruneMode uint8

// The available reductions (see the package comment).
const (
	// PruneNone explores every interleaving (the seed-count anchor).
	PruneNone PruneMode = iota
	// PruneSleep is the legacy sleep-set reduction: kept so every count
	// pinned under it (9662 / 1956 / 1092→273 / 421) stays reproducible.
	PruneSleep
	// PruneSourceDPOR is race-driven backtracking plus sleep sets — the
	// default reduction of every frontend.
	PruneSourceDPOR
)

// String renders the mode the way the tascheck -prune flag spells it.
func (m PruneMode) String() string {
	switch m {
	case PruneNone:
		return "none"
	case PruneSleep:
		return "sleep"
	case PruneSourceDPOR:
		return "dpor"
	}
	return fmt.Sprintf("PruneMode(%d)", uint8(m))
}

// ParsePruneMode parses a -prune flag value: the String spellings, nothing
// else.
func ParsePruneMode(s string) (PruneMode, error) {
	for _, m := range []PruneMode{PruneNone, PruneSleep, PruneSourceDPOR} {
		if s == m.String() {
			return m, nil
		}
	}
	return PruneNone, fmt.Errorf("engine: unknown prune mode %q (none | sleep | dpor)", s)
}

// Config bounds an exhaustive walk.
type Config struct {
	// MaxExecutions aborts the walk after this many execution attempts
	// (0 = no bound). Without pruning, attempts and completed executions
	// coincide, matching the seed engine's semantics; with pruning,
	// attempts abandoned as redundant count against the budget but not in
	// Report.Executions. When hit, Run returns Partial=true rather than an
	// error, and (outside source-DPOR mode) the Report carries a Checkpoint
	// of the unexplored frontier.
	MaxExecutions int
	// MaxDepth, when nonzero, stops branching below this decision depth:
	// executions still run to completion, but alternative choices deeper
	// than MaxDepth are not explored (a context-bound-style truncation of
	// the tree, not resumable). Hitting it marks the report Partial.
	MaxDepth int
	// TimeBudget, when nonzero, stops dequeuing new work after this much
	// wall-clock time and checkpoints the remaining frontier. Which items
	// completed by then is timing-dependent, so a time-cut exploration is
	// not deterministic; a later Run with Resume can finish it.
	TimeBudget time.Duration
	// Crashes adds one crash branch per parked process at every decision
	// point. This grows the tree roughly 2^depth-fold; use with tight
	// process counts or with pruning (crashes commute with other
	// processes' steps, so both pruned modes collapse most of that growth).
	Crashes bool
	// Workers is the number of executions run concurrently (0 or 1 =
	// sequential). Workers never changes the deterministic report fields of
	// a completed walk; see the package comment for which fields are
	// advisory.
	Workers int
	// Prune selects the partial-order reduction (default PruneNone: an
	// unpruned 1-worker run visits exactly the executions the seed engine
	// visited).
	Prune PruneMode
	// FailFast stops the walk at the first check failure instead of
	// finishing the tree to find the canonically least one. Faster on
	// failing harnesses, but which failure is reported becomes
	// timing-dependent when Workers > 1.
	FailFast bool
	// CacheStates enables state-fingerprint caching: at every branching
	// decision point the engine keys the state as (Env.Fingerprint(),
	// per-process granted-step counts, crashed set, sleep set) in one
	// sharded cache shared across all workers and abandons the run —
	// subtree included — when the key was already claimed by an earlier
	// visit, composing with (and pruning beyond) sleep sets. It requires
	// the harness to register every shared object (otherwise Fingerprint
	// reports not-ok and the cache is silently inert) and is subject to the
	// soundness caveats recorded in DESIGN.md: hash collisions (now a
	// 128-bit bound), and process-local state not determined by (step
	// count, shared memory). Incompatible with PruneSourceDPOR, whose
	// exploration obligations are not captured by the cache key.
	CacheStates bool
	// Resume seeds the work queue from a previous run's checkpoint instead
	// of the tree root. The harness and the rest of the config must match
	// the run that produced it. Counters restart from zero. Incompatible
	// with PruneSourceDPOR (its backtracking state is not serializable).
	Resume *Checkpoint
	// Metrics, when non-nil, attaches the observability layer: the walk
	// increments the domain's sharded counters (a handful of atomic adds
	// per execution, never per scheduler step), registers frontier and
	// layer fold sources for its duration, and emits lifecycle events into
	// the domain's event log. Strictly advisory: nothing the engine decides
	// ever reads it, so every deterministic Report field — and the walk's
	// verdict — is byte-identical with Metrics attached or nil (pinned by
	// the obs equivalence tests).
	Metrics *obs.Metrics
}

// Report summarizes an exhaustive walk. Fields marked advisory may vary
// with Config.Workers under CacheStates or PruneSourceDPOR; all other
// fields are identical for every worker count on a completed walk.
type Report struct {
	// Executions is the number of distinct interleavings run to completion
	// and checked. On completed walks this is deterministic for every
	// worker count in every prune mode: both pruned modes complete
	// exactly one interleaving per Mazurkiewicz trace class (sleep sets
	// never complete two equivalent traces — Godefroid — and both cover
	// every class), an argument independent of exploration order. So on
	// fully explorable harnesses the two pruned modes report *equal*
	// Executions, and source-DPOR's reduction shows up in Attempts — the
	// redundant prefixes never started. Advisory only under CacheStates
	// with Workers > 1 (which duplicate subtree is abandoned is
	// timing-dependent) and on Partial walks.
	Executions int
	// Attempts is the number of work items run: completed executions plus
	// prefix replays abandoned as redundant (sleep-blocked or state-
	// cached). It is the unit MaxExecutions bounds and the engine's raw
	// work measure — wall-clock tracks it — and it is where source-DPOR's
	// strict reduction over the legacy sleep sets lands. Deterministic
	// under the same conditions as Executions.
	Attempts int
	// Pruned counts work skipped as redundant by sleep sets: branches
	// never explored plus in-flight executions abandoned once every
	// remaining branch was known to be covered elsewhere. Advisory.
	Pruned int
	// Backtracks counts the race-driven backtrack points source-DPOR
	// added; zero in other modes. Advisory.
	Backtracks int
	// CacheHits counts executions abandoned by state-fingerprint caching:
	// runs that reached a decision point whose state key was already
	// claimed by another part of the walk. Zero unless Config.CacheStates
	// is set and the harness registers its shared objects. Advisory.
	CacheHits int
	// Replays counts attempts that re-entered the tree by re-executing a
	// nonempty choice prefix from the initial state: every work item but
	// the root. Advisory.
	Replays int
	// Partial reports whether the walk was cut off by MaxExecutions,
	// MaxDepth or TimeBudget. Deterministic on completed walks (false).
	Partial bool
	// MaxDepth is the largest number of scheduler decisions seen in a
	// completed execution. Deterministic.
	MaxDepth int
	// DistinctStates is the number of distinct terminal-state fingerprints
	// over all executed interleavings (0 when the harness does not register
	// fingerprintable objects; FingerprintOK reports which). Deterministic:
	// pruning, caching and worker scheduling never change which terminal
	// states are reachable, only which representative path reaches them.
	DistinctStates int
	// FingerprintOK reports whether terminal states could be fingerprinted.
	FingerprintOK bool
	// TerminalStates is the sorted set of distinct terminal-state
	// fingerprints (nil when FingerprintOK is false). Deterministic; it is
	// the witness the reduction property tests compare across prune modes
	// and worker counts.
	TerminalStates []memory.Fingerprint
	// Checkpoint holds the unexplored frontier when the walk was cut off
	// by MaxExecutions or TimeBudget (nil otherwise, and always nil in
	// source-DPOR mode); pass it as Config.Resume to continue later.
	Checkpoint *Checkpoint
	// WallTime is the wall-clock duration of the Run call. Advisory by
	// nature: never identical across runs or machines.
	WallTime time.Duration
	// CutBy names the budget that first cut a Partial walk: "executions"
	// (MaxExecutions), "time" (TimeBudget) or "depth" (MaxDepth). Empty on
	// completed walks, and on walks stopped by something other than a
	// budget (a FailFast hit, an internal error). Advisory: with Workers >
	// 1, which budget trips first near a boundary can be timing-dependent.
	CutBy string
}

// Transition identifies one scheduler branch for checkpointing: granting a
// step to a process, or crashing it.
type Transition struct {
	Proc  int  `json:"proc"`
	Crash bool `json:"crash,omitempty"`
}

// WorkItem is one unexplored frontier node: the choice prefix that reaches
// it and the sleep set (transitions whose subtrees are covered by siblings)
// in effect there. Prefixes are stored as transitions, so a checkpoint is
// plain serializable data, valid across program runs: object identities in
// the access metadata are execution-local and are re-derived on replay.
type WorkItem struct {
	Prefix []Transition `json:"prefix"`
	Sleep  []Transition `json:"sleep,omitempty"`

	// node anchors a source-DPOR item in the in-memory tree of decision
	// nodes: when set, Prefix holds only the transitions from node's
	// decision on (for a backtrack addition, the one new branch) and the
	// root-to-node part is read off the node chain when the item is run —
	// an item shares its prefix with the tree instead of copying it. Never
	// serialized — which is why source-DPOR walks are not checkpointable.
	node *dnode
	// resumed is 1 + the item's index in Config.Resume for an item read
	// from a checkpoint, and 0 for one this walk discovered.
	resumed int
}

// Checkpoint is a resumable frontier: the set of work items an interrupted
// exploration had discovered but not yet executed.
type Checkpoint struct {
	Items []WorkItem `json:"items"`
}

// CheckError is the single failure type of Run and Sample: a check failure
// wrapped with the schedule that produced it, so a failing interleaving can
// be replayed with sched.NewReplay. Failures found by Sample additionally
// carry the seed of the failing run (Sampled distinguishes them, since 0 is
// a legitimate seed), so they can be reproduced by seed without re-running
// the batch.
type CheckError struct {
	Schedule []sched.Choice
	Seed     int64
	Sampled  bool
	Err      error
}

func (e *CheckError) Error() string {
	if e.Sampled {
		return fmt.Sprintf("engine: check failed on seed %d (schedule %v): %v", e.Seed, e.Schedule, e.Err)
	}
	return fmt.Sprintf("engine: check failed on schedule %v: %v", e.Schedule, e.Err)
}

func (e *CheckError) Unwrap() error { return e.Err }

// failure is a candidate CheckError tagged with the canonical branch-index
// path of its leaf, the engine's tie-breaking order. It outlives the run
// that found it, so path and schedule are its own copies.
type failure struct {
	path     []int
	schedule []sched.Choice
	err      error
}

// lexLess orders branch-index paths. Two distinct leaf paths always differ
// at some shared position (a leaf cannot be a proper prefix of another:
// equal paths reach equal states, which are either both terminal or not).
func lexLess(a, b []int) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// engine is the shared state of one Run call.
type engine struct {
	core *core
	cfg  Config

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []WorkItem // LIFO: deepest discovered first = canonical order
	leftover []WorkItem // frontier preserved when stopping early
	inflight int
	started  int // items dequeued, bounded by MaxExecutions
	stopping bool
	deadline time.Time
	cutBy    string // first budget that stopped the walk ("" = none)

	// obs is the attached observability domain (Config.Metrics; nil when
	// absent). Strictly advisory: written, never read, by the walk.
	obs *obs.Metrics

	backtracks atomic.Int64 // race-driven additions (source-DPOR)
	onRaces    func(c *itemChooser, races []race)

	// The result fields below are guarded by core.checkMu, which also
	// serializes harness construction, check and reset calls.
	executions  int
	pruned      int
	cacheHits   int
	replays     int
	truncated   bool
	maxDepth    int
	fpOK        bool
	terminal    map[memory.Fingerprint]struct{}
	best        *failure
	internalErr error

	// cache is the sharded set of state keys claimed by decision points of
	// the walk, shared across all workers (see Config.CacheStates).
	cache *stateCache
}

// Run walks the interleaving tree of h under cfg. It returns a CheckError
// carrying the canonically least failing schedule if any check failed, an
// internal error if the harness turned out nondeterministic, returned no
// reset or one of its closures panicked, and otherwise the report of the
// completed (or budget-cut) walk.
func Run(h Harness, cfg Config) (Report, error) {
	return run(h, cfg, nil)
}

// run is Run with onRaces, when not nil, handed every analysed trace's race
// list before its backtracks are scheduled (the tests compare it with a
// pair scan).
func run(h Harness, cfg Config, onRaces func(c *itemChooser, races []race)) (Report, error) {
	if cfg.Prune == PruneSourceDPOR {
		if cfg.CacheStates {
			return Report{}, fmt.Errorf("engine: CacheStates is incompatible with source-DPOR (the cache key does not capture backtracking obligations); use Prune: PruneSleep")
		}
		if cfg.Resume != nil {
			return Report{}, fmt.Errorf("engine: Resume is incompatible with source-DPOR (backtracking state is not serializable); use Prune: PruneSleep or PruneNone")
		}
	}
	start := time.Now()
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	e := &engine{core: newCore(h, workers), cfg: cfg, terminal: map[memory.Fingerprint]struct{}{}, obs: cfg.Metrics, onRaces: onRaces}
	defer e.core.close()
	if cfg.Resume != nil {
		// Worker 0's instance is built ahead of the walk: it tells how many
		// processes the checkpoint's transitions may name.
		inst, err := e.core.instanceFor(0)
		if err == nil {
			e.queue, err = resumeQueue(cfg.Resume, inst.env.N(), cfg.Crashes)
		}
		if err != nil {
			return Report{}, err
		}
	} else {
		e.queue = []WorkItem{{}}
	}
	e.cond = sync.NewCond(&e.mu)
	if e.obs != nil {
		removeFrontier := e.obs.AddSource("engine_frontier", "Unexplored frontier items queued.", true, func() int64 {
			e.mu.Lock()
			n := len(e.queue) + len(e.leftover)
			e.mu.Unlock()
			return int64(n)
		})
		removeInflight := e.obs.AddSource("engine_inflight", "Frontier items currently executing.", true, func() int64 {
			e.mu.Lock()
			n := e.inflight
			e.mu.Unlock()
			return int64(n)
		})
		removeLayers := e.core.registerObs(e.obs)
		defer func() {
			removeFrontier()
			removeInflight()
			removeLayers()
		}()
		e.obs.Event("walk_start", map[string]any{
			"workers": workers, "prune": cfg.Prune.String(),
			"crashes": cfg.Crashes, "resume": cfg.Resume != nil,
		})
	}
	if cfg.TimeBudget > 0 {
		e.deadline = time.Now().Add(cfg.TimeBudget)
	}
	if cfg.CacheStates {
		e.cache = newStateCache()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ch := &itemChooser{e: e, w: w}
			for {
				item, ok := e.next()
				if !ok {
					return
				}
				if e.obs != nil {
					e.obs.Attempts.Inc(w)
				}
				if inst, err := e.core.instanceFor(w); err != nil {
					e.fail(err)
				} else {
					e.runItem(ch, inst, item)
				}
				e.done()
			}
		}(w)
	}
	wg.Wait()

	rep := Report{
		Executions: e.executions,
		Attempts:   e.started,
		Pruned:     e.pruned,
		Backtracks: int(e.backtracks.Load()),
		CacheHits:  e.cacheHits,
		Replays:    e.replays,
		MaxDepth:   e.maxDepth,
		Partial:    len(e.leftover) > 0 || e.truncated,
		WallTime:   time.Since(start),
	}
	if rep.Partial {
		rep.CutBy = e.cutBy
	}
	if e.obs != nil {
		e.obs.Event("walk_end", map[string]any{
			"executions": rep.Executions, "attempts": rep.Attempts,
			"partial": rep.Partial, "cut_by": rep.CutBy,
			"failed":  e.best != nil,
			"wall_ms": float64(rep.WallTime.Microseconds()) / 1000,
		})
	}
	if e.fpOK {
		rep.FingerprintOK = true
		rep.DistinctStates = len(e.terminal)
		rep.TerminalStates = make([]memory.Fingerprint, 0, len(e.terminal))
		for fp := range e.terminal {
			rep.TerminalStates = append(rep.TerminalStates, fp)
		}
		sort.Slice(rep.TerminalStates, func(i, j int) bool {
			return fingerprintLess(rep.TerminalStates[i], rep.TerminalStates[j])
		})
	}
	if len(e.leftover) > 0 && cfg.Prune != PruneSourceDPOR {
		// Also set alongside a CheckError: a budget-cut walk that found a
		// failure can still be resumed for further coverage.
		rep.Checkpoint = &Checkpoint{Items: e.leftover}
	}
	if e.internalErr != nil {
		return rep, e.internalErr
	}
	if e.best != nil {
		return rep, &CheckError{Schedule: e.best.schedule, Err: e.best.err}
	}
	return rep, nil
}

// resumeQueue validates a checkpoint before the walk starts and returns its
// items, tagged as resumed, as the initial work queue. Every transition of
// every item must name a process in [0, n), and crash transitions belong
// only to a walk with crashes; anything else is a corrupt checkpoint.
func resumeQueue(ck *Checkpoint, n int, crashes bool) ([]WorkItem, error) {
	queue := make([]WorkItem, len(ck.Items))
	for i, item := range ck.Items {
		for _, ts := range [2][]Transition{item.Prefix, item.Sleep} {
			for _, t := range ts {
				if t.Proc < 0 || t.Proc >= n {
					return nil, fmt.Errorf("engine: corrupt checkpoint: item %d: process %d is not in [0, %d)", i, t.Proc, n)
				}
				if t.Crash && !crashes {
					return nil, fmt.Errorf("engine: corrupt checkpoint: item %d: crash of process %d in a walk without crashes", i, t.Proc)
				}
			}
		}
		item.resumed = i + 1
		queue[i] = item
	}
	return queue, nil
}

// next blocks until a work item is available or the exploration is over.
func (e *engine) next() (WorkItem, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if e.stopping {
			return WorkItem{}, false
		}
		if len(e.queue) > 0 {
			if e.cfg.MaxExecutions > 0 && e.started >= e.cfg.MaxExecutions {
				e.cutLocked("executions")
				e.stopLocked()
				return WorkItem{}, false
			}
			if !e.deadline.IsZero() && time.Now().After(e.deadline) {
				e.cutLocked("time")
				e.stopLocked()
				return WorkItem{}, false
			}
			last := len(e.queue) - 1
			item := e.queue[last]
			e.queue[last] = WorkItem{} // the slot must not keep the item's nodes alive
			e.queue = e.queue[:last]
			e.started++
			e.inflight++
			return item, true
		}
		if e.inflight == 0 {
			return WorkItem{}, false
		}
		e.cond.Wait()
	}
}

// cutLocked records the first budget that cut the walk (later cuts keep
// the original cause) and emits the budget_cut event. Callers must hold
// e.mu.
func (e *engine) cutLocked(by string) {
	if e.cutBy != "" {
		return
	}
	e.cutBy = by
	if e.obs != nil {
		e.obs.Event("budget_cut", map[string]any{"by": by})
	}
}

// stopLocked halts dequeuing and preserves the remaining queue as the
// resumable frontier. Callers must hold e.mu.
func (e *engine) stopLocked() {
	e.stopping = true
	e.leftover = append(e.leftover, e.queue...)
	e.queue = nil
	e.cond.Broadcast()
}

func (e *engine) done() {
	e.mu.Lock()
	e.inflight--
	if e.inflight == 0 {
		e.cond.Broadcast()
	}
	e.mu.Unlock()
}

func (e *engine) enqueue(item WorkItem) {
	e.mu.Lock()
	if e.stopping {
		e.leftover = append(e.leftover, item)
	} else {
		e.queue = append(e.queue, item)
		e.cond.Signal()
	}
	e.mu.Unlock()
}

// runItem executes one frontier prefix to a leaf, enqueuing the sibling
// branches it passes on the way down (in source-DPOR mode: only crash
// siblings eagerly; step siblings on demand from the race analysis of the
// completed trace). The bodies re-enter the instance's persistent executor
// and the instance is reset afterwards.
//
// ch is the worker's chooser and res the executor's reused Result: both are
// overwritten by the worker's next item, so the one thing that outlives
// this call — a failure that becomes the walk's best — is copied out.
//
// A panic in a harness closure (a body, check or reset) is recovered here,
// on the worker's goroutine, after the deferred unlock below has released
// the check lock: the walk stops and Run returns the named error.
func (e *engine) runItem(ch *itemChooser, inst *instance, item WorkItem) {
	stage := stageRun
	var res *sched.Result
	defer func() {
		if r := recover(); r != nil {
			e.fail(harnessPanic(stage, r, res))
		}
	}()
	ch.begin(item, inst.env)
	res = inst.exec.Run(ch)
	if ch.bad == nil && len(res.Schedule) < len(ch.prefix) {
		ch.bad = ch.diverged(len(res.Schedule)) // the run ended inside its prefix
	}

	if ch.bad == nil && e.cfg.Prune == PruneSourceDPOR {
		// Race analysis mutates only per-node state (under node locks) and
		// the work queue, so it runs outside the check lock.
		e.analyzeRaces(ch)
	}

	e.core.checkMu.Lock()
	defer e.core.checkMu.Unlock()
	stage = stageCheck // the only harness code merge calls
	e.merge(ch, inst, res)
	stage = stageReset
	inst.env.Reset()
	inst.reset()
}

// merge folds one finished run into the walk's result fields and, if it
// reached a leaf, checks it. The caller holds the check lock.
func (e *engine) merge(ch *itemChooser, inst *instance, res *sched.Result) {
	w := ch.w
	if ch.bad != nil {
		e.failLocked(ch.bad)
		return
	}
	e.pruned += ch.pruned
	if e.obs != nil && ch.pruned > 0 {
		e.obs.Pruned.Add(w, int64(ch.pruned))
	}
	if len(ch.prefix) > 0 {
		e.replays++
		if e.obs != nil {
			e.obs.Replays.Inc(w)
		}
	}
	if ch.aborted {
		if ch.cacheHit {
			// The decision point's state key was already claimed: the leaf
			// this item would have reached (and its whole subtree) repeats
			// an equal-state node explored elsewhere.
			e.cacheHits++
		} else {
			// Every continuation from some point on was asleep: the leaf
			// this item would have reached is a reordering of leaves
			// reached through sibling branches. The run was abandoned, not
			// checked.
			e.pruned++
			if e.obs != nil {
				e.obs.Pruned.Inc(w)
			}
		}
		return
	}
	e.executions++
	if e.obs != nil {
		e.obs.Executions.Inc(w)
		e.obs.Depths.Add(w, len(res.Schedule))
	}
	if d := len(res.Schedule); d > e.maxDepth {
		e.maxDepth = d
	}
	if fp, ok := inst.env.Fingerprint(); ok {
		e.fpOK = true
		e.terminal[fp] = struct{}{}
	}
	if err := inst.check(res); err != nil {
		if e.obs != nil {
			e.obs.Failures.Inc(w)
		}
		if e.best == nil || lexLess(ch.path, e.best.path) {
			e.best = &failure{
				path:     append([]int(nil), ch.path...),
				schedule: append([]sched.Choice(nil), res.Schedule...),
				err:      err,
			}
			if e.obs != nil {
				e.obs.Event("failure_found", map[string]any{
					"depth": len(res.Schedule), "error": err.Error(),
				})
			}
		}
		if e.cfg.FailFast {
			e.mu.Lock()
			e.stopLocked()
			e.mu.Unlock()
		}
	}
}

// fail records the walk's first internal error — a nondeterministic or
// panicking harness — and stops the walk.
func (e *engine) fail(err error) {
	e.core.checkMu.Lock()
	defer e.core.checkMu.Unlock()
	e.failLocked(err)
}

// failLocked is fail for callers that hold the check lock.
func (e *engine) failLocked(err error) {
	if e.internalErr == nil {
		e.internalErr = err
	}
	e.mu.Lock()
	e.stopLocked()
	e.mu.Unlock()
}

func (e *engine) noteTruncated() {
	e.core.checkMu.Lock()
	e.truncated = true
	e.core.checkMu.Unlock()
	e.mu.Lock()
	e.cutLocked("depth")
	e.mu.Unlock()
}
