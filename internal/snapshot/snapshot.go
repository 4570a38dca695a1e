// Package snapshot implements a wait-free single-writer atomic snapshot
// object from atomic registers, in the style of Afek, Attiya, Dolev, Gafni,
// Merritt and Shavit. The universal construction of Section 4.2 shares "a
// snapshot object Reqs, where process p_i adds its requests in component
// Reqs[i]"; this package is that substrate, built from scratch on the
// register primitives of internal/memory.
//
// Each component stores (value, sequence number, embedded view). Scan
// performs repeated collects: if two consecutive collects are identical it
// returns the direct view; if some updater is seen to move twice, its
// embedded view — written during the scanner's interval — is borrowed.
// Update embeds a fresh scan with each write. Both operations complete in
// O(n^2) register steps, the linear-per-component cost that makes generic
// composition expensive (experiment E3).
package snapshot

import "repro/internal/memory"

type component[T any] struct {
	val  T
	seq  int64
	view []T
}

// Snapshot is an n-component single-writer atomic snapshot holding values
// of type T. Component i may be updated only by process i.
type Snapshot[T any] struct {
	regs []*memory.Reg[component[T]]
	zero T
}

// New returns a snapshot with n components, each initialized to init.
func New[T any](n int, init T) *Snapshot[T] {
	s := &Snapshot[T]{regs: make([]*memory.Reg[component[T]], n), zero: init}
	for i := range s.regs {
		s.regs[i] = memory.NewReg[component[T]](nil)
	}
	return s
}

// N returns the number of components.
func (s *Snapshot[T]) N() int { return len(s.regs) }

// collect reads all components once, returning values and sequence numbers.
func (s *Snapshot[T]) collect(p *memory.Proc) ([]T, []int64, []*component[T]) {
	vals := make([]T, len(s.regs))
	seqs := make([]int64, len(s.regs))
	cells := make([]*component[T], len(s.regs))
	for i, r := range s.regs {
		c := r.Read(p)
		cells[i] = c
		if c == nil {
			vals[i] = s.zero
			seqs[i] = 0
		} else {
			vals[i] = c.val
			seqs[i] = c.seq
		}
	}
	return vals, seqs, cells
}

// Scan returns an atomic view of all components: a vector of values that
// existed simultaneously at some point during the call. It is wait-free:
// after at most n+2 collects some updater has moved twice and its embedded
// view is returned.
func (s *Snapshot[T]) Scan(p *memory.Proc) []T {
	n := len(s.regs)
	moved := make([]int, n)
	prevVals, prevSeqs, _ := s.collect(p)
	for {
		vals, seqs, cells := s.collect(p)
		same := true
		for i := 0; i < n; i++ {
			if seqs[i] != prevSeqs[i] {
				same = false
				moved[i]++
				if moved[i] >= 2 {
					// cells[i] was written entirely within this Scan, so its
					// embedded view is a linearizable snapshot inside our
					// interval.
					view := make([]T, n)
					copy(view, cells[i].view)
					return view
				}
			}
		}
		if same {
			out := make([]T, n)
			copy(out, vals)
			return out
		}
		prevVals, prevSeqs = vals, seqs
		_ = prevVals
	}
}

// Update writes v to component i (the caller must be the single writer of
// component i, conventionally process i). The write embeds a fresh scan so
// concurrent scanners can borrow it.
func (s *Snapshot[T]) Update(p *memory.Proc, i int, v T) {
	view := s.Scan(p)
	old := s.regs[i].Read(p)
	var seq int64 = 1
	if old != nil {
		seq = old.seq + 1
	}
	s.regs[i].Write(p, &component[T]{val: v, seq: seq, view: view})
}

// ReadComponent returns the current value of component i without a full
// scan (one register read). It is not atomic with respect to other
// components.
func (s *Snapshot[T]) ReadComponent(p *memory.Proc, i int) T {
	c := s.regs[i].Read(p)
	if c == nil {
		return s.zero
	}
	return c.val
}

// ResetState implements memory.Resettable: all components revert to ⊥.
func (s *Snapshot[T]) ResetState() {
	for _, r := range s.regs {
		r.ResetState()
	}
}
