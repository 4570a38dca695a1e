package consensus

import "repro/internal/memory"

// CASConsensus is wait-free consensus from a single compare-and-swap
// object: the first process to install its value decides for everyone.
// It never aborts, so composing it as the final stage of a Chain yields a
// wait-free consensus whose fast path never touches the CAS (Section 4.2's
// "reverting to stronger compare-and-swap primitives otherwise").
type CASConsensus struct {
	cell *memory.CASReg
}

// NewCASConsensus returns a fresh instance.
func NewCASConsensus() *CASConsensus {
	return &CASConsensus{cell: memory.NewCASReg(Bottom)}
}

// Name implements Abortable.
func (c *CASConsensus) Name() string { return "cas-consensus" }

// Propose implements Abortable; it always commits. The inherited value, if
// any, takes precedence over the process's own proposal, preserving the
// chain invariant that a value tentatively installed by an earlier stage is
// carried forward.
func (c *CASConsensus) Propose(p *memory.Proc, old, v int64) (Outcome, int64) {
	pick := v
	if old != Bottom {
		pick = old
	}
	if c.cell.CompareAndSwap(p, Bottom, pick) {
		return Commit, pick
	}
	return Commit, c.cell.Read(p)
}

// Query implements Abortable.
func (c *CASConsensus) Query(p *memory.Proc) int64 {
	return c.cell.Read(p)
}

// ResetState implements memory.Resettable.
func (c *CASConsensus) ResetState() { c.cell.ResetState() }

// HashState implements memory.Fingerprinter.
func (c *CASConsensus) HashState(h *memory.StateHash) bool { return c.cell.HashState(h) }
