package tas

import "repro/internal/memory"

// LongLived is the resettable test-and-set object of Algorithm 2: an array
// TAS[] of one-shot composed objects and a shared register Count used as a
// round counter. The current winner — and only the current winner, per the
// well-formedness condition of Afek et al. [1] — may reset the object,
// which advances Count to a fresh one-shot instance and thereby also
// reverts the algorithm from the hardware module back to the speculative
// register-only module (the back edge of Figure 1).
type LongLived struct {
	count *memory.FetchInc
	arr   *memory.GrowArray[OneShot]
	// crtWinner is process-local state (one slot per process id).
	crtWinner []bool
	soloFast  bool
}

// NewLongLived returns a long-lived TAS for n processes built from
// speculative one-shot instances.
func NewLongLived(n int) *LongLived {
	return newLongLived(n, false)
}

// NewSoloFastLongLived returns the Appendix B flavour: each round's
// speculative module is the solo-fast A1 variant.
func NewSoloFastLongLived(n int) *LongLived {
	return newLongLived(n, true)
}

func newLongLived(n int, soloFast bool) *LongLived {
	t := &LongLived{
		count:     memory.NewFetchInc(0),
		crtWinner: make([]bool, n),
		soloFast:  soloFast,
	}
	t.arr = memory.NewGrowArray[OneShot](func(int) *OneShot {
		if soloFast {
			return NewSoloFastOneShot()
		}
		return NewOneShot()
	})
	return t
}

// ResetState implements memory.Resettable: the round counter and the
// instance array revert to construction state (slot instances are
// discarded and re-created on demand; the factory is deterministic), and
// the process-local winner flags clear.
func (t *LongLived) ResetState() {
	t.count.ResetState()
	t.arr.ResetState()
	for i := range t.crtWinner {
		t.crtWinner[i] = false
	}
}

// TestAndSet performs the long-lived operation: read the current round,
// then run that round's composed one-shot object.
func (t *LongLived) TestAndSet(p *memory.Proc) int64 {
	v, _ := t.TestAndSetTraced(p)
	return v
}

// TestAndSetTraced additionally reports which module (0 = A1, 1 = A2)
// served the operation.
func (t *LongLived) TestAndSetTraced(p *memory.Proc) (int64, int) {
	c := t.count.Read(p)
	inst := t.arr.Get(p, int(c))
	val, module := inst.TestAndSetTraced(p)
	if val == 0 { // spec.Winner
		t.crtWinner[p.ID()] = true
	}
	return val, module
}

// Reset reverts the object to 0 (Algorithm 2's reset): only the current
// winner advances the round. The read-then-write on Count is safe because
// at most one process is the current winner.
func (t *LongLived) Reset(p *memory.Proc) {
	if !t.crtWinner[p.ID()] {
		return
	}
	next := t.count.Read(p) + 1
	// Materialize the next round's instance before publishing the new
	// round: the paper's TAS[] array pre-exists (it is an unbounded shared
	// array), whereas our growable array creates slots with one CAS. Paying
	// that CAS here, inside the winner's reset, keeps the test-and-set fast
	// path register-only after a reset.
	t.arr.Get(p, int(next))
	t.count.Write(p, next)
	t.crtWinner[p.ID()] = false
}

// Round reports the current round index (diagnostics and experiments).
func (t *LongLived) Round(p *memory.Proc) int64 { return t.count.Read(p) }

// Preallocate materializes the first k one-shot instances. The paper's
// TAS[] is an unbounded pre-existing array; benchmarks call Preallocate so
// the growable array's one-CAS slot materialization does not pollute the
// per-operation step accounting.
func (t *LongLived) Preallocate(p *memory.Proc, k int) {
	for i := 0; i < k; i++ {
		t.arr.Get(p, i)
	}
}
