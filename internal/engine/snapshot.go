package engine

// Snapshot-based incremental replay: O(1) branch restoration instead of
// O(depth) re-execution.
//
// A stateless walk pays for every frontier item by re-executing its whole
// choice prefix from the initial state. When every registered object
// implements memory.Snapshotter, the engine can instead capture the shared
// state at the decision point that spawned the item's siblings and, when
// the item is popped, restore that snapshot and fast-forward the process
// bodies over their recorded value logs (sched.Executor.RunReplay) — the
// memory cost of one snapshot buys back the step cost of the prefix for
// every sibling.
//
// The ledger below bounds that memory: captured snapshots are admitted
// against a byte budget, and when the budget overflows the shallowest held
// snapshot is dropped first — it saves the fewest replayed steps per byte,
// so it is the cheapest to lose (an approximation of evicting by
// depth x size value). A dropped snapshot simply fails take(), and the item
// falls back to the reconstruct path, which remains the semantics anchor:
// both paths produce identical deterministic Report fields, and the
// equivalence tests pin that.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/memory"
	"repro/internal/sched"
)

// SnapshotMode selects whether the engine restores branches from memory
// snapshots or reconstructs them by re-execution.
type SnapshotMode uint8

// The snapshot modes of Config.Snapshots.
const (
	// SnapshotAuto (the default) enables snapshot restoration exactly when
	// it is sound and profitable: the harness is pooled (has a reset path),
	// every registered object implements memory.Snapshotter, and the prune
	// mode re-enters branches through prefixes long enough for restoration
	// to beat capture (none and sleep; source-DPOR's race-driven
	// backtracking already keeps prefixes short and rare, so auto leaves it
	// on the reconstruct path — see the E15 ledger). Otherwise the engine
	// silently reconstructs.
	SnapshotAuto SnapshotMode = iota
	// SnapshotOn requests snapshot restoration; like Auto it still degrades
	// to the reconstruct path when the environment does not support it
	// (unregistered or non-Snapshotter objects, no pooled executor) —
	// falling back is the documented behaviour, not an error.
	SnapshotOn
	// SnapshotOff disables snapshot capture and restoration entirely.
	SnapshotOff
)

// String renders the mode the way the tascheck -snapshots flag spells it.
func (m SnapshotMode) String() string {
	switch m {
	case SnapshotAuto:
		return "auto"
	case SnapshotOn:
		return "on"
	case SnapshotOff:
		return "off"
	}
	return fmt.Sprintf("SnapshotMode(%d)", uint8(m))
}

// ParseSnapshotMode parses a -snapshots flag value.
func ParseSnapshotMode(s string) (SnapshotMode, error) {
	switch s {
	case "auto", "":
		return SnapshotAuto, nil
	case "on", "true":
		return SnapshotOn, nil
	case "off", "false":
		return SnapshotOff, nil
	}
	return SnapshotAuto, fmt.Errorf("engine: unknown snapshot mode %q (auto | on | off)", s)
}

// engineSnap is one captured branch-restoration point: everything needed to
// re-enter the walk at a decision point without re-executing its prefix.
// All slice fields are the snapshot's own copies: the buffers a run builds
// them in (chooser scratch, the executor's Result, the processes' logs) are
// reused by the next run. inst pins the snapshot to the worker instance whose
// environment produced it: object states may embed instance-local pointers,
// so a snapshot is only restored into the same instance (a cross-worker pop
// falls back to reconstruction).
type engineSnap struct {
	depth int   // decisions in the captured prefix
	bytes int64 // admission size estimate
	inst  *instance

	mem      *memory.EnvSnapshot
	path     []int                // canonical branch indices of the prefix
	sched    []sched.Choice       // the prefix schedule
	resAccs  []memory.Access      // granted accesses (real ones for crashes)
	logs     [][]memory.ReplayRec // per-process value logs (packed copies)
	posAfter [][]int32            // per-process schedule positions (packed)

	// The source-DPOR trace record (trans/accs/nodes) is deliberately NOT
	// captured: it is fully reconstructible on restore from the item's
	// prefix, the granted accesses above, and the item's dnode chain
	// (itemChooser.resume).

	// refs is the number of pending take() calls for sibling-counted
	// snapshots; pinnedRefs marks snapshots held by a source-DPOR decision
	// node, whose future backtrack additions are unbounded. Guarded by the
	// owning ledger's mutex. dropped is accessed atomically (a plain uint32
	// rather than atomic.Bool so take may copy the struct) so the
	// source-DPOR capture heuristics can peek at liveness without the
	// ledger lock.
	refs    int32
	dropped uint32

	// heldIdx is the snapshot's position in the owning ledger's eviction
	// heap (-1 once removed). Guarded by the ledger's mutex.
	heldIdx int
}

// pinnedRefs marks a snapshot retained for an unbounded number of takes
// (source-DPOR nodes); it is released only by budget eviction.
const pinnedRefs int32 = -1

// snapStride is the source-DPOR capture spacing: a decision node captures a
// snapshot only when no ancestor node within snapStride depths already holds
// a live one. Backtrack items restore the nearest ancestor snapshot and
// gated-replay the at most snapStride remaining prefix steps, so the stride
// trades a bounded sliver of re-execution for cutting capture volume by the
// branching rate times the stride — most source-DPOR nodes never receive a
// backtrack addition, so an unconditional per-node capture costs more than
// restoration saves.
const snapStride = 8

// live reports whether the snapshot still holds its payload (lock-free;
// advisory — take() re-checks under the ledger mutex).
func (s *engineSnap) live() bool {
	return s != nil && atomic.LoadUint32(&s.dropped) == 0
}

// drop releases the snapshot's payload. Callers must hold the ledger mutex.
func (s *engineSnap) drop() {
	atomic.StoreUint32(&s.dropped, 1)
	s.mem = nil
	s.path = nil
	s.sched = nil
	s.resAccs = nil
	s.logs = nil
	s.posAfter = nil
}

// snapLedger bounds the total bytes of live snapshots. Admission may evict
// other snapshots (shallowest depth first); eviction marks them dropped, so
// later take() calls on them fail and their items reconstruct instead.
// held is a min-heap on depth with back-indices in heldIdx, so admission,
// eviction and release are all O(log n) — a deep walk churns the budget
// hundreds of thousands of times, and linear scans here turn the whole
// exploration quadratic.
type snapLedger struct {
	mu     sync.Mutex
	budget int64
	used   int64
	held   []*engineSnap

	// evictions counts budget evictions; onEvict, when set, observes each
	// one (called under mu — it must not re-enter the ledger). Both are
	// obs-only: nothing the ledger decides reads them.
	evictions int64
	onEvict   func(count int64, depth int, bytes int64)
}

// defaultSnapshotBudget is the byte budget when Config.SnapshotBudget is 0.
const defaultSnapshotBudget = 64 << 20

func newSnapLedger(budget int64) *snapLedger {
	if budget <= 0 {
		budget = defaultSnapshotBudget
	}
	return &snapLedger{budget: budget}
}

// heapUp and heapDown restore the depth min-heap invariant around index i,
// keeping every snapshot's heldIdx current.
func (l *snapLedger) heapUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if l.held[p].depth <= l.held[i].depth {
			break
		}
		l.heapSwap(i, p)
		i = p
	}
}

func (l *snapLedger) heapDown(i int) {
	for {
		c := 2*i + 1
		if c >= len(l.held) {
			return
		}
		if c+1 < len(l.held) && l.held[c+1].depth < l.held[c].depth {
			c++
		}
		if l.held[i].depth <= l.held[c].depth {
			return
		}
		l.heapSwap(i, c)
		i = c
	}
}

func (l *snapLedger) heapSwap(i, j int) {
	l.held[i], l.held[j] = l.held[j], l.held[i]
	l.held[i].heldIdx = i
	l.held[j].heldIdx = j
}

// heapRemove detaches the snapshot at heap index i without dropping it.
func (l *snapLedger) heapRemove(i int) *engineSnap {
	s := l.held[i]
	last := len(l.held) - 1
	l.heapSwap(i, last)
	l.held = l.held[:last]
	s.heldIdx = -1
	if i < last {
		l.heapDown(i)
		l.heapUp(i)
	}
	return s
}

// admit registers a captured snapshot against the budget, evicting held
// snapshots (shallowest first — least replay saved per byte) while over it.
// The newly admitted snapshot itself is evictable.
func (l *snapLedger) admit(s *engineSnap) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.used += s.bytes
	s.heldIdx = len(l.held)
	l.held = append(l.held, s)
	l.heapUp(s.heldIdx)
	for l.used > l.budget && len(l.held) > 0 {
		ev := l.heapRemove(0)
		l.used -= ev.bytes
		ev.drop()
		l.evictions++
		if l.onEvict != nil {
			l.onEvict(l.evictions, ev.depth, ev.bytes)
		}
		if ev == s {
			return
		}
	}
}

// addRefs extends a sibling-counted snapshot's expected takes by n, so one
// decision-point capture can serve later sibling sets within snapStride of
// its depth. It fails when the snapshot was evicted or already fully
// consumed (released), or is pinned — the caller then captures afresh.
func (l *snapLedger) addRefs(s *engineSnap, n int32) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if atomic.LoadUint32(&s.dropped) != 0 || s.refs <= 0 {
		return false
	}
	s.refs += n
	return true
}

// release removes a fully consumed snapshot from the ledger, freeing its
// budget share. Callers must hold l.mu.
func (l *snapLedger) releaseLocked(s *engineSnap) {
	if s.heldIdx >= 0 {
		l.heapRemove(s.heldIdx)
		l.used -= s.bytes
		s.drop()
	}
}

// take returns a consistent copy of the snapshot's fields for restoration,
// or ok=false when the snapshot was evicted or belongs to a different
// worker instance. Sibling-counted snapshots are released once their last
// expected take lands; pinned (source-DPOR node) snapshots stay until
// evicted.
func (l *snapLedger) take(s *engineSnap, inst *instance) (engineSnap, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if atomic.LoadUint32(&s.dropped) != 0 || s.inst != inst {
		return engineSnap{}, false
	}
	out := *s
	if s.refs != pinnedRefs {
		s.refs--
		if s.refs <= 0 {
			l.releaseLocked(s)
		}
	}
	return out, true
}

// snapOverhead estimates the bookkeeping bytes of a snapshot beyond the
// memory state itself: the retained schedule/access/log copies.
func snapOverhead(s *engineSnap) int64 {
	n := int64(len(s.sched))*24 + int64(len(s.path))*8 + int64(len(s.resAccs))*24
	for _, lg := range s.logs {
		n += int64(len(lg)) * 24
	}
	for _, ps := range s.posAfter {
		n += int64(len(ps)) * 4
	}
	return n + 128
}
