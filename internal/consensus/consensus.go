// Package consensus implements the paper's abortable consensus instances
// (Appendix A): SplitConsensus, which commits in the absence of interval
// contention using only registers and a splitter; AbortableBakery, which
// commits in the absence of step contention using only registers; and a
// wait-free compare-and-swap consensus used as the final, never-aborting
// stage. Instances chain in increasing order of progress-condition
// strength, each abort value becoming the next instance's old argument,
// exactly as the SplitConsensus/AbortableBakery wrappers of Algorithms 3
// and 4 prescribe. Agreement across stages holds because a stage that
// committed x carries x in every one of its aborts (the stages' contention
// flags order commits before abort reads), so every later-stage proposal
// equals x. The package tests run such chains as core.Composition modules.
//
// An abortable consensus instance returns either a commit or an abort
// indication together with a value; it guarantees agreement on committed
// values, and commits whenever its progress predicate holds. On abort the
// returned value is the instance's tentative value (⊥ if no value could
// have been committed — and once an instance aborts with ⊥ no request is
// ever committed by it, the property safe composition relies on).
package consensus

import "repro/internal/memory"

// Bottom is the distinguished value ⊥: "no value". Proposals must not
// equal Bottom.
const Bottom int64 = -1 << 62

// Outcome is a commit or abort indication.
type Outcome uint8

// The two indications of abortable consensus.
const (
	Commit Outcome = iota
	Abort
)

// String returns the indication name.
func (o Outcome) String() string {
	if o == Commit {
		return "commit"
	}
	return "abort"
}

// Abortable is one abortable consensus instance.
type Abortable interface {
	// Name identifies the algorithm (for reports).
	Name() string

	// Propose runs the instance's wrapper (Algorithms 3/4): old is a value
	// inherited from a previous instance (Bottom if none), v the process's
	// own proposal. If the init pass aborts, Propose returns (Abort, old);
	// if it commits a non-⊥ value that value is returned; otherwise the
	// process's own value is proposed.
	Propose(p *memory.Proc, old, v int64) (Outcome, int64)

	// Query returns the instance's current decision estimate without
	// proposing: the committed value if the instance has committed, a
	// tentative value if one has been written, or Bottom if the instance is
	// vacant. It is the mechanism by which an aborting process of the
	// universal construction recovers slot decisions ("the process can get
	// a decision value by proposing ⊥" in the paper; a read-only query
	// avoids polluting the instance with ⊥ proposals — see DESIGN.md).
	// Query never returns ⊥ after some process committed a value.
	Query(p *memory.Proc) int64
}

// wrap implements the shared wrapper of Algorithms 3 and 4 around a raw
// propose procedure:
//
//	(ind, res) ← init(old) = propose(old)   // the init pass
//	if ind = abort then return (abort, old)
//	if res = ⊥ then return propose(v)
//	return (commit, res)
//
// with one simplification: when old = ⊥ there is nothing to inherit and the
// init pass is skipped instead of literally proposing ⊥. The paper's
// propose(⊥) pass writes ⊥ into the shared value registers; keeping ⊥ out
// of them preserves the invariant "a stored value is some process's
// proposal", which both algorithms' adoption rules rely on, and leaves the
// observable contract unchanged (DESIGN.md records the substitution).
// A second refinement concerns the abort value. Algorithm 3 aborts the
// init pass with old itself; that is sound inside the universal
// construction, but when instances are chained directly the instance may
// have committed a different value for another process, and the stale old
// would flow into the next stage and break cross-stage agreement. Each
// instance guarantees that once it commits x every abort carries x, and
// that an abort carrying ⊥ means the instance never commits; so the abort
// value takes precedence over old, with old only surviving a ⊥ abort.
func wrap(p *memory.Proc, old, v int64, propose func(p *memory.Proc, v int64) (Outcome, int64)) (Outcome, int64) {
	if old != Bottom {
		ind, res := propose(p, old)
		if ind == Abort {
			if res != Bottom {
				return Abort, res
			}
			return Abort, old
		}
		if res != Bottom {
			return Commit, res
		}
	}
	return propose(p, v)
}
