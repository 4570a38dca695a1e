// Package explore is the exhaustive-exploration frontend over the shared
// engine core (internal/engine): small-scope model checking by enumerating
// every interleaving of a controlled execution.
//
// The paper's correctness arguments (invariants 1–5 of Lemma 4, Lemma 6,
// linearizability of the composed TAS) are universally quantified over
// executions; this package checks them over *every* execution for small
// process counts, and the tests fall back to seeded random sampling beyond
// that.
//
// All execution-driving machinery — the worker pool, pooled-executor
// lifecycle, budgets, checkpoint frontier, partial-order reductions
// (legacy sleep sets and source-DPOR), the cross-worker sharded state
// cache, and deterministic lex-least failure merging — lives in
// internal/engine; this package re-exports the engine's types so existing
// harnesses and configs keep compiling, and keeps the exploration-flavored
// conveniences (NoReset, the Sample shim over internal/randexp). See the
// engine package comment for the architecture, the pruning guarantees, and
// the deterministic-versus-advisory report contract.
package explore

import (
	"errors"

	"repro/internal/engine"
	"repro/internal/randexp"
)

// Harness builds one instance of the system under test; see engine.Harness
// for the reset/registration contract.
type Harness = engine.Harness

// Config bounds an exploration; see engine.Config.
type Config = engine.Config

// PruneMode selects the partial-order reduction; see engine.PruneMode.
type PruneMode = engine.PruneMode

// The available reductions, re-exported for callers of this frontend.
const (
	PruneNone       = engine.PruneNone
	PruneSleep      = engine.PruneSleep
	PruneSourceDPOR = engine.PruneSourceDPOR
)

// ParsePruneMode parses a -prune flag value ("none" | "sleep" | "dpor",
// with the historical boolean spellings accepted).
func ParsePruneMode(s string) (PruneMode, error) { return engine.ParsePruneMode(s) }

// Report summarizes an exploration; see engine.Report for which fields are
// deterministic and which advisory.
type Report = engine.Report

// Transition identifies one scheduler branch for checkpointing.
type Transition = engine.Transition

// WorkItem is one unexplored frontier node.
type WorkItem = engine.WorkItem

// Checkpoint is a resumable frontier.
type Checkpoint = engine.Checkpoint

// CheckError is the unified failure type of both exploration frontends
// (engine.CheckError): a check failure carrying the schedule that produced
// it, plus the failing seed when found by sampling.
type CheckError = engine.CheckError

// Run walks the interleaving tree of h under cfg on the shared engine
// core. It returns a CheckError carrying the canonically least failing
// schedule if any check failed, an internal error if the harness turned
// out nondeterministic, and otherwise the report of the completed (or
// budget-cut) walk.
func Run(h Harness, cfg Config) (Report, error) {
	return engine.Run(h, cfg)
}

// NoReset strips a harness's reset path, forcing the engine onto the
// reconstruct-per-execution path for every interleaving.
func NoReset(h Harness) Harness {
	return engine.NoReset(h)
}

// SampleCrashProb is the per-decision crash probability used by Sample's
// crash mode: high enough that most sampled runs exercise crash recovery,
// low enough that long, mostly-live interleavings stay in the sample (a
// uniform choice over the step-and-crash branch space Run explores would
// crash at half of all decisions).
const SampleCrashProb = 0.25

// Sample runs k uniformly seeded-random interleavings of h (seeds
// seed..seed+k-1) and reports the canonically least failing seed, if any.
// It is the fallback for process counts where exhaustive exploration is
// infeasible, and is a thin shim over the randexp frontend's single-worker
// uniform sampler: harnesses providing a reset path run pooled, harnesses
// without one are explicitly reconstructed for every run (the documented
// fallback — all shared state must live inside the closure), and a failure
// carries both the schedule and the failing seed in the CheckError, so it
// reproduces without re-running the batch. With crashes set the schedules
// include seeded crash injection (parity with Run's Crashes branches; see
// SampleCrashProb for the sampling bias). Sampling stops at the end of the
// first randexp batch containing a failure, so on a failing harness
// Executions may exceed the failing run's index; structured samplers,
// parallel sampling, and coverage reporting are available by calling
// randexp.Run directly.
func Sample(h Harness, k int, seed int64, crashes bool) (Report, error) {
	p := 0.0
	if crashes {
		p = SampleCrashProb
	}
	srep, err := randexp.Run(randexp.Harness(h), randexp.Config{
		Sampler:   randexp.SamplerRandom,
		Samples:   k,
		Seed:      seed,
		Workers:   1,
		CrashProb: p,
	})
	rep := Report{Executions: srep.Executions, MaxDepth: srep.MaxDepth}
	var ce *CheckError
	if errors.As(err, &ce) {
		return rep, ce
	}
	return rep, err
}
