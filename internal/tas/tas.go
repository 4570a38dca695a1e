// Package tas implements the paper's speculative test-and-set (Section 6):
// an obstruction-free module A1 built from four registers with constant
// step and space complexity (Algorithm 1), a wait-free module A2 wrapping a
// hardware test-and-set, their safe composition into a one-shot wait-free
// linearizable TAS (Lemma 7), the long-lived resettable object of
// Algorithm 2, and the solo-fast variant of Appendix B.
//
// The headline properties reproduced here: the composition commits in
// constant time using only registers in the absence of step contention,
// reverts to the hardware object (consensus number 2) otherwise, and the
// whole construction never uses a primitive with consensus number above
// two. Experiments E1, E2, E6 and E8 quantify this; the exhaustive tests
// verify Lemma 4's invariants, Lemma 6, and linearizability on every
// interleaving for small process counts.
package tas

import (
	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/spec"
)

// SV is the switch-value set V = {W, L} of Definition 3: W means the
// test-and-set has not been won by a committed operation ("the object has
// not yet been won"), L means the aborting process has dropped from
// contention and must lose.
type SV int8

// The two switch values.
const (
	W SV = iota
	L
)

// String returns the switch-value name.
func (v SV) String() string {
	if v == W {
		return "W"
	}
	return "L"
}

// bottomID is the register encoding of ⊥ for process-id registers.
const bottomID int64 = -1

// A1 is the obstruction-free module of Algorithm 1. Shared state: the
// contention-detection registers P and S (initially ⊥), the abort flag
// register aborted (initially false), and the object value V (initially 0).
// Every code path returns within a constant number of steps; progress
// (commit rather than abort) is guaranteed in the absence of step
// contention (Lemma 6).
type A1 struct {
	p       *memory.IntReg
	s       *memory.IntReg
	aborted *memory.BoolReg
	v       *memory.IntReg

	// soloFast selects the Appendix B variant: the entry check of the
	// aborted register (lines 4–6) is removed, so a process reverts to the
	// hardware object only when it itself encounters step contention.
	soloFast bool
}

// NewA1 returns a fresh obstruction-free module.
func NewA1() *A1 {
	return &A1{
		p:       memory.NewIntReg(bottomID),
		s:       memory.NewIntReg(bottomID),
		aborted: memory.NewBoolReg(false),
		v:       memory.NewIntReg(0),
	}
}

// NewSoloFastA1 returns the Appendix B variant of the module.
func NewSoloFastA1() *A1 {
	a := NewA1()
	a.soloFast = true
	return a
}

// ResetState implements memory.Resettable: all four registers revert to
// their initial values, so a registered A1 can be reused across pooled
// executions.
func (a *A1) ResetState() {
	a.p.ResetState()
	a.s.ResetState()
	a.aborted.ResetState()
	a.v.ResetState()
}

// HashState implements memory.Fingerprinter.
func (a *A1) HashState(h *memory.StateHash) bool {
	a.p.HashState(h)
	a.s.HashState(h)
	a.aborted.HashState(h)
	a.v.HashState(h)
	return true
}

// Name implements core.Module.
func (a *A1) Name() string {
	if a.soloFast {
		return "A1-solo-fast"
	}
	return "A1"
}

// Invoke implements core.Module: Algorithm 1's A1-test-and-set(val), with
// sv = nil encoding val = ⊥.
func (a *A1) Invoke(p *memory.Proc, _ spec.Request, sv core.SwitchValue) (core.Outcome, int64, core.SwitchValue) {
	val, hasVal := sv.(SV)

	// Lines 4–6: an already-aborted instance sends everyone onward, with W
	// if the object is still unwon and L (dropping from contention) if its
	// value has been set. The solo-fast variant omits this check.
	if !a.soloFast && a.aborted.Read(p) {
		if a.v.Read(p) == 0 {
			return core.Aborted, 0, W
		}
		return core.Aborted, 0, L
	}

	// Lines 7–8: a set value or an inherited L loses immediately.
	if a.v.Read(p) == 1 || (hasVal && val == L) {
		return core.Committed, spec.Loser, nil
	}

	// Lines 9–12: race through P then S; seeing anyone else in either
	// register is a safe loss.
	if a.p.Read(p) != bottomID {
		return core.Committed, spec.Loser, nil
	}
	id := int64(p.ID())
	a.p.Write(p, id)
	if a.s.Read(p) != bottomID {
		return core.Committed, spec.Loser, nil
	}
	a.s.Write(p, id)

	// Lines 13–17: still alone in P — set the value and win, unless the
	// instance was aborted in the meantime.
	if a.p.Read(p) == id {
		a.v.Write(p, 1)
		if !a.aborted.Read(p) {
			return core.Committed, spec.Winner, nil
		}
		return core.Aborted, 0, W
	}

	// Lines 18–23: interval contention detected; flag the instance and
	// either lose (value already set) or abort with W.
	a.aborted.Write(p, true)
	if a.v.Read(p) == 1 {
		return core.Committed, spec.Loser, nil
	}
	return core.Aborted, 0, W
}

// A2 is the wait-free module (Algorithm 2, lines 16–19): a hardware
// test-and-set T. Participants entering with val = L lose immediately;
// everyone else commits the hardware outcome.
type A2 struct {
	t *memory.HardwareTAS
}

// NewA2 returns a fresh wait-free module.
func NewA2() *A2 { return &A2{t: memory.NewHardwareTAS()} }

// ResetState implements memory.Resettable.
func (a *A2) ResetState() { a.t.ResetState() }

// HashState implements memory.Fingerprinter.
func (a *A2) HashState(h *memory.StateHash) bool { return a.t.HashState(h) }

// Name implements core.Module.
func (a *A2) Name() string { return "A2" }

// Invoke implements core.Module.
func (a *A2) Invoke(p *memory.Proc, _ spec.Request, sv core.SwitchValue) (core.Outcome, int64, core.SwitchValue) {
	if val, ok := sv.(SV); ok && val == L {
		return core.Committed, spec.Loser, nil
	}
	if a.t.TestAndSet(p) == 0 {
		return core.Committed, spec.Winner, nil
	}
	return core.Committed, spec.Loser, nil
}

// OneShot is the composition of A1 and A2 (Figure 1): a wait-free
// linearizable one-shot test-and-set that uses only registers in the
// absence of step contention (Lemma 7). It is a core.Composition, so
// Theorem 2 — a chain of safely composable modules is safely composable —
// is the code that runs; resetting and fingerprinting walk A1 then A2.
type OneShot struct{ *core.Composition }

// NewOneShot returns a fresh composed one-shot TAS.
func NewOneShot() *OneShot { return &OneShot{core.NewComposition(NewA1(), NewA2())} }

// NewSoloFastOneShot returns the Appendix B composition: A1 without the
// entry abort check, so only processes that themselves experience step
// contention touch the hardware object.
func NewSoloFastOneShot() *OneShot {
	return &OneShot{core.NewComposition(NewSoloFastA1(), NewA2())}
}

// TestAndSet runs the composed object: A1 first, switching to A2 with A1's
// switch value on abort. It returns spec.Winner or spec.Loser.
func (o *OneShot) TestAndSet(p *memory.Proc) int64 {
	v, _ := o.TestAndSetTraced(p)
	return v
}

// TestAndSetTraced additionally reports which module committed the
// response (0 = A1's speculative register path, 1 = A2's hardware path),
// for the module-usage experiments.
func (o *OneShot) TestAndSetTraced(p *memory.Proc) (int64, int) {
	_, resp, _, k := o.Invoke(p, spec.Request{})
	return resp, k
}

// MConstraint is the constraint function M of Definition 3. For a token
// set S: if S contains a reply with value W, M(S) is the set of histories
// whose head is one of S's W-requests and which contain every request of S;
// otherwise M(S) is the set of histories whose head is a request not in S
// and which contain every request of S.
type MConstraint struct{}

var _ core.Constraint = MConstraint{}

// Contains implements core.Constraint.
func (MConstraint) Contains(tokens []core.Token, h spec.History) bool {
	if len(h) == 0 || h.HasDuplicates() {
		return false
	}
	head := h[0]
	hasW := false
	headIsW := false
	headInS := false
	for _, tk := range tokens {
		if !h.Contains(tk.Req.ID) {
			return false
		}
		if tk.Req.ID == head.ID {
			headInS = true
		}
		if v, ok := tk.Val.(SV); ok && v == W {
			hasW = true
			if tk.Req.ID == head.ID {
				headIsW = true
			}
		}
	}
	if hasW {
		return headIsW
	}
	return !headInS
}

// Candidates implements core.Constraint by filtering orderings of subsets
// of the available requests through Contains. Every equivalence class of
// eq(S, M) representable over the trace's requests has a member here: for
// TAS the class of a history is determined by its head (the winner), and
// all heads allowed by M appear among the enumerated orderings.
func (m MConstraint) Candidates(tokens []core.Token, available []spec.Request) []spec.History {
	enumerate := func(pool []spec.Request) []spec.History {
		var out []spec.History
		spec.Subsets(pool, func(sub []spec.Request) bool {
			subCopy := append([]spec.Request(nil), sub...)
			spec.Permutations(subCopy, func(h spec.History) bool {
				if m.Contains(tokens, h) {
					out = append(out, h.Clone())
				}
				return true
			})
			return true
		})
		return out
	}
	out := enumerate(available)
	if len(out) == 0 {
		// With no W token M(S) needs a head outside S; when no invoked
		// request qualifies, the head is the previous module's unseen
		// winner. Synthesize it as a phantom request (negative id so it can
		// never collide with recorder-issued ids) — Lemma 4's proof does
		// the same with the crashed process's request.
		ph := spec.Request{ID: -999, Proc: -1, Op: spec.OpTAS}
		out = enumerate(append(append([]spec.Request(nil), available...), ph))
	}
	return out
}
