package linearize

// The Wing–Gong/Lowe just-in-time linearizability checker: the general
// checker of this package. It streams an arbitrarily long history through a
// bounded window:
//
//   - The history is cut at *quiescent points* — stamps where every
//     earlier completed operation has already returned. At such a cut
//     every earlier completed op real-time-precedes every later op, so a
//     linearization of the whole history is exactly a concatenation of
//     per-segment linearizations chained on the object state. Stress
//     round barriers are natural quiescent points; low-contention phases
//     produce them constantly.
//   - Each segment is solved by a calls-first search over an entry-linked
//     history (Wing–Gong as refined by Lowe): candidate operations are
//     the call entries before the first return entry of a doubly-linked
//     event list, linearizing an op unlinks its entries in O(1), and
//     backtracking relinks them (undo, no copying). Configurations
//     (linearized-set bitmask, pending-usage mask, interned state id) are
//     memoized exactly, and the search enumerates *every* reachable
//     terminal configuration — the frontier carried into the next
//     segment — not just the first.
//   - Verified segments are evicted: only the frontier of
//     (state, pending-mask) configurations crosses a cut. A Stream
//     therefore holds the operations of one window (in a compact form,
//     moved to the front of one buffer on eviction), the search state of
//     one segment (event list, memo, frontier: reset for each segment,
//     never rebuilt) and the interner, which is compacted in place to the
//     frontier's live states whenever it grows past a threshold — memory
//     in proportion to the widest window and the largest memo solved, not
//     to the operations seen.
//   - A history is never copied and never reordered: CheckJIT and
//     CheckObjects push operations straight from the caller's slice,
//     through a per-object int32 index that is sorted only when the
//     operations are not already in invocation order. By Herlihy–Wing
//     locality the per-object projections of a composed history are
//     independent, so CheckObjects checks them concurrently and assembles
//     the answer afterwards in module order.
//
// Pending operations (crashed or cut off mid-flight) float forward: with
// no response event they real-time-precede nothing, so they may take
// effect in their own segment (no earlier than their invocation), in any
// later segment, or never. They are carried in a capped side table and
// addressed by a bitmask in every configuration.

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/spec"
	"repro/internal/trace"
)

// The JIT checker's default budgets.
const (
	// DefaultWindow is the default bound on operations resident between
	// quiescent cuts. A history whose overlap exceeds the window is a
	// contract error (raise the window), never a verdict.
	DefaultWindow = 8192
	// DefaultMaxConfigs is the default per-segment configuration budget.
	DefaultMaxConfigs = 1 << 21
	// DefaultMaxPending is the default cap on carried pending operations
	// (they occupy bits of a 64-bit mask in every configuration).
	DefaultMaxPending = 64

	// segTarget is the preferred segment size: consecutive quiescent cuts
	// are coalesced up to this many operations so mostly-sequential
	// histories do not pay per-segment setup for every operation.
	segTarget = 512
	// compactAbove triggers interner compaction: after a segment, if more
	// states than this are interned, the interner is rebuilt from the
	// frontier's live states (unbounded-state types like counters would
	// otherwise grow the intern table linearly with history length).
	compactAbove = 1 << 16
)

// JITConfig parameterizes the JIT checker. The zero value selects the
// defaults above with witness tracking off.
type JITConfig struct {
	// Window bounds the operations resident between quiescent cuts.
	Window int
	// MaxConfigs bounds the per-segment memoized configuration count.
	MaxConfigs int
	// MaxPending bounds the carried pending-operation table (≤ 64).
	MaxPending int
	// Witness retains a linearization witness per frontier configuration.
	// Witness histories grow with the stream; enable only for histories
	// that fit in memory (CheckJIT enables it automatically for small
	// inputs).
	Witness bool
}

func (c JITConfig) withDefaults() JITConfig {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.MaxConfigs <= 0 {
		c.MaxConfigs = DefaultMaxConfigs
	}
	if c.MaxPending <= 0 || c.MaxPending > 64 {
		c.MaxPending = DefaultMaxPending
	}
	return c
}

// Stats is the JIT checker's telemetry: how much history was checked, how
// it was segmented, and the peak sizes of the bounded structures.
type Stats struct {
	// Ops counts operations pushed (completed and pending).
	Ops int64
	// Windows counts solved segments and Evicted the completed operations
	// released after their segment was verified.
	Windows int64
	Evicted int64
	// PeakWindow is the largest segment solved; PeakConfigs the largest
	// per-segment memo; PeakStates the most states interned at once;
	// PeakFrontier the widest configuration frontier carried across a cut.
	PeakWindow   int
	PeakConfigs  int
	PeakStates   int
	Frontier     int
	PeakFrontier int
}

// Fold accumulates another checker's telemetry into st (counters add,
// peaks take the maximum) — used to aggregate per-object and per-check
// stats.
func (st *Stats) Fold(o Stats) {
	st.Ops += o.Ops
	st.Windows += o.Windows
	st.Evicted += o.Evicted
	st.PeakWindow = max(st.PeakWindow, o.PeakWindow)
	st.PeakConfigs = max(st.PeakConfigs, o.PeakConfigs)
	st.PeakStates = max(st.PeakStates, o.PeakStates)
	st.Frontier += o.Frontier
	st.PeakFrontier = max(st.PeakFrontier, o.PeakFrontier)
}

// streamCfg is one frontier configuration: the object state after the
// segments solved so far, the pending operations that have taken effect,
// and (when tracked) a witness linearization reaching it.
type streamCfg struct {
	state    stateID
	pendUsed uint64
	witness  spec.History
}

// winOp is what a Stream keeps of a pushed operation while it is resident:
// the stamps, the request and its response — less than half a trace.Op —
// with the op name already interned and the stutter declaration already
// looked up, so the search touches neither a string nor the type.
type winOp struct {
	inv, ret, resp int64
	prefMax        int64 // ≥ max ret over the buffer up to and including this op
	req            spec.Request
	op             uint16 // interner index of req.Op
	stutter        bool   // the type declares (req.Op, resp) stutter-safe
}

// Stream checks one object's history online. Push operations in
// invocation-stamp order, Barrier at instance resets (the stream verifies
// the closed instance and restarts from the type's starting state), and
// Finish for the verdict. Not safe for concurrent use.
//
// Everything a Stream holds is sized by the widest window (and the largest
// memo and frontier) it has solved, not by the operations it has seen:
// eviction compacts the buffer in place, and the per-segment search state
// below is reset for each segment, never rebuilt.
type Stream struct {
	t       spec.Type
	cfg     JITConfig
	in      *interner
	stutter spec.Stutterable // non-nil iff t declares stutter-safe pairs
	track   bool
	lastInv int64

	frontier []streamCfg
	pend     []winOp // carried pending ops; bit i of pendUsed = pend[i]

	buf     []winOp // completed ops awaiting a segment, Inv-sorted
	cuts    []int   // ascending quiescent cut indices into buf
	scanned int     // cut predicate evaluated for indices < scanned

	failed *Result // sticky verdict failure
	err    error   // sticky contract error
	stats  Stats

	// The search state of the segment being solved.
	seg        []winOp    // the segment: a prefix of buf
	ents       []segEntry // its entry-linked event list; [0] head, [1] tail
	rets       []retKey   // scratch: return entries in stamp order
	callAt     []int32    // scratch: entry index of each op's call
	anyStutter bool       // some op of the segment is stutter-safe
	mask       []uint64   // linearized-set bitmask
	remaining  int        // completed ops not yet linearized
	memo       memo
	next       []streamCfg    // the frontier this segment reaches
	base       int            // frontier config being explored (for witnesses)
	frag       []spec.Request // witness fragment of the current DFS path
	live       []spec.State   // scratch: frontier states across a compaction
}

// NewStream returns a stream checking a history of type t.
func NewStream(t spec.Type, cfg JITConfig) *Stream {
	cfg = cfg.withDefaults()
	s := &Stream{
		t:        t,
		cfg:      cfg,
		in:       newInterner(t),
		track:    cfg.Witness,
		lastInv:  math.MinInt64,
		frontier: []streamCfg{{}},
		scanned:  1,
	}
	if st, ok := t.(spec.Stutterable); ok {
		s.stutter = st
	}
	return s
}

// Push feeds the next operation. Operations must arrive in invocation
// order; aborted operations must be projected out first. The returned
// error is a contract violation (ordering, a response stamped before its
// invocation, budgets), never a verdict — verdict failures are sticky and
// reported by Finish.
func (s *Stream) Push(op trace.Op) error { return s.push(&op) }

// push is Push without the 136-byte argument copy: CheckJIT and
// CheckObjects feed operations straight from the caller's slice. It keeps
// no reference to *op.
func (s *Stream) push(op *trace.Op) error {
	if s.err != nil {
		return s.err
	}
	if op.Aborted {
		s.err = fmt.Errorf("linearize: aborted operation (id %d) must be projected out before the stream", op.Req.ID)
		return s.err
	}
	if s.failed != nil {
		return nil // verdict already decided; drain cheaply
	}
	if op.Inv < s.lastInv {
		s.err = fmt.Errorf("linearize: stream operations must be pushed in invocation order (stamp %d after %d)", op.Inv, s.lastInv)
		return s.err
	}
	s.lastInv = op.Inv
	s.stats.Ops++
	w := winOp{inv: op.Inv, ret: op.Ret, resp: op.Resp, req: op.Req, op: s.in.opIndex(op.Req.Op)}
	if op.Pending {
		if len(s.pend) >= s.cfg.MaxPending {
			s.err = fmt.Errorf("linearize: more than %d pending operations carried (raise MaxPending up to 64)", s.cfg.MaxPending)
			return s.err
		}
		s.pend = append(s.pend, w)
		return nil
	}
	if op.Ret < op.Inv {
		s.err = fmt.Errorf("linearize: operation %v returns at stamp %d, before its invocation at %d", op.Req, op.Ret, op.Inv)
		return s.err
	}
	w.stutter = s.stutter != nil && s.stutter.StutterSafe(op.Req.Op, op.Resp)
	w.prefMax = op.Ret
	if n := len(s.buf); n > 0 && s.buf[n-1].prefMax > w.prefMax {
		w.prefMax = s.buf[n-1].prefMax
	}
	s.buf = append(s.buf, w)
	// Evaluate the (immutable) cut predicate at the new index: index i is
	// a quiescent cut iff everything before it returned before its
	// invocation. prefMax may retain values from evicted ops; those are
	// all smaller than any remaining Inv, so the comparison stays exact.
	for ; s.scanned < len(s.buf); s.scanned++ {
		if s.buf[s.scanned-1].prefMax < s.buf[s.scanned].inv {
			s.cuts = append(s.cuts, s.scanned)
		}
	}
	return s.advance(false)
}

// advance solves buffered segments. Without force it batches up to
// segTarget operations per segment and enforces the window bound; with
// force (Finish/Barrier) it drains the buffer completely, as one segment
// once what is left fits the target — so a stress round, closed by a
// Barrier, is one window per object whatever quiescent cuts it holds.
func (s *Stream) advance(force bool) error {
	for s.failed == nil {
		if force && len(s.buf) <= min(segTarget, s.cfg.Window) {
			break
		}
		c := s.pickCut()
		if c < 0 {
			break
		}
		s.solveSegment(c, s.buf[c].inv)
		s.evict(c)
		if s.err != nil {
			return s.err
		}
	}
	if s.failed != nil {
		s.buf, s.cuts, s.scanned = s.buf[:0], s.cuts[:0], 1
		return nil
	}
	if force {
		if len(s.buf) > 0 {
			s.solveSegment(len(s.buf), math.MaxInt64)
			s.evict(len(s.buf))
		}
		return s.err
	}
	last := 0
	if n := len(s.cuts); n > 0 {
		last = s.cuts[n-1]
	}
	if len(s.buf)-last > s.cfg.Window {
		s.err = fmt.Errorf("linearize: no quiescent cut within the %d-op window (history too entangled; raise Window)", s.cfg.Window)
	}
	return s.err
}

// pickCut selects the next segment boundary: the largest known cut within
// the target batch size (coalescing runs of tiny quiescent segments), or
// the earliest cut when even it exceeds the target. -1 means wait for
// more operations (or, under force, drain the remainder as one segment).
func (s *Stream) pickCut() int {
	target := min(segTarget, s.cfg.Window)
	if len(s.cuts) == 0 || len(s.buf) < target {
		return -1
	}
	c := s.cuts[0]
	for _, x := range s.cuts[1:] {
		if x > target {
			break
		}
		c = x
	}
	return c
}

// evict drops the first c buffered operations, moving the rest (less than
// a window) to the front of the same array, and rebases the cut queue.
func (s *Stream) evict(c int) {
	s.buf = s.buf[:copy(s.buf, s.buf[c:])]
	keep := s.cuts[:0]
	for _, x := range s.cuts {
		if x > c {
			keep = append(keep, x-c)
		}
	}
	s.cuts = keep
	s.scanned = max(1, s.scanned-c)
	s.stats.Evicted += int64(c)
}

// Barrier closes the current object instance — the harness reset its
// object — verifying everything buffered and restarting the frontier from
// the type's starting state. Pending operations cannot cross a reset;
// having never returned, they constrain nothing, so the closed instance's
// verdict already accounts for both fates. Stamps may restart after a
// barrier.
func (s *Stream) Barrier() error {
	if s.err != nil {
		return s.err
	}
	if err := s.advance(true); err != nil {
		return err
	}
	s.pend = s.pend[:0]
	clear(s.frontier) // a fresh instance: no live states, no witnesses to keep
	s.frontier = append(s.frontier[:0], streamCfg{})
	s.lastInv = math.MinInt64
	s.stats.PeakStates = max(s.stats.PeakStates, s.in.size())
	s.in.reset()
	return nil
}

// Finish drains the buffer and returns the verdict. Contract errors
// (ordering, window, budgets) are returned as errors; a genuine
// non-linearizable window is a Result with Ok == false and a Reason
// localizing it.
func (s *Stream) Finish() (Result, error) {
	if s.err != nil {
		return Result{}, s.err
	}
	if err := s.advance(true); err != nil {
		return Result{}, err
	}
	if s.failed != nil {
		return *s.failed, nil
	}
	res := Result{Ok: true}
	if s.track && len(s.frontier) > 0 {
		res.Witness = s.frontier[0].witness
	}
	return res, nil
}

// Failed exposes a sticky verdict failure mid-stream (nil while the
// history linearizes), so online drivers can stop feeding early.
func (s *Stream) Failed() *Result { return s.failed }

// Stats returns a snapshot of the checker telemetry.
func (s *Stream) Stats() Stats {
	out := s.stats
	out.PeakStates = max(out.PeakStates, s.in.size())
	out.Frontier = len(s.frontier)
	return out
}

// solveSegment runs the entry-linked search over the quiescent segment
// buf[:n], replacing the frontier with every configuration reachable from
// it. An empty result frontier is a verdict failure localized to the
// segment.
func (s *Stream) solveSegment(n int, segEnd int64) {
	if n == 0 {
		return
	}
	s.stats.Windows++
	s.stats.PeakWindow = max(s.stats.PeakWindow, n)

	s.link(n, segEnd)
	for i := range s.frontier {
		s.base = i
		s.dfs(s.frontier[i].state, s.frontier[i].pendUsed)
		if s.err != nil {
			return
		}
	}
	s.stats.PeakConfigs = max(s.stats.PeakConfigs, s.memo.n)
	if len(s.next) == 0 {
		s.failed = &Result{Ok: false, Reason: s.failReason()}
		return
	}
	slices.SortFunc(s.next, func(a, b streamCfg) int {
		if c := cmp.Compare(a.state, b.state); c != 0 {
			return c
		}
		return cmp.Compare(a.pendUsed, b.pendUsed)
	})
	clear(s.frontier) // drop the old witnesses before the array is reused
	s.frontier, s.next = s.next, s.frontier[:0]
	s.stats.PeakFrontier = max(s.stats.PeakFrontier, len(s.frontier))

	// Compact the interner to the frontier's live states: counters and
	// other unbounded-state types would otherwise grow it with history
	// length. Memo hits are overwhelmingly intra-segment, so dropping the
	// transition cache here costs almost nothing.
	if s.in.size() > compactAbove {
		s.stats.PeakStates = max(s.stats.PeakStates, s.in.size())
		s.live = s.live[:0]
		for i := range s.frontier {
			s.live = append(s.live, s.in.state(s.frontier[i].state))
		}
		s.in.reset()
		for i := range s.frontier {
			s.frontier[i].state = s.in.id(s.live[i])
		}
		clear(s.live)
	}
}

// segEntry is one node of the entry-linked event list: a call or return
// entry in stamp order, linked by index so the list holds no pointers.
// Linearizing an operation unlinks its entries; backtracking relinks them
// in reverse order (dancing links).
type segEntry struct {
	prev, next int32
	match      int32 // completed call: its return entry
	op         int32 // completed: index in the segment, and its mask bit; pending: index in Stream.pend
	call       bool
	pending    bool
	stutter    bool
}

// The list's sentinels.
const (
	entHead = 0
	entTail = 1
)

// retKey orders the return entries of a segment: by stamp, then by the
// operation's position.
type retKey struct {
	ret int64
	op  int32
}

// link builds the event list of segment buf[:n] and clears the rest of the
// search state. Calls are already in stamp order (the buffer is
// Inv-sorted, and so is the pending table), so only the returns are
// sorted, and the three runs are merged. On equal stamps calls come before
// returns — an op invoked exactly when another returns is concurrent with
// it (real-time precedence is strict), so it must still be a candidate —
// completed calls before pending ones, and equal kinds in push order.
// Entries are written in list order, so entry i links to i-1 and i+1.
func (s *Stream) link(n int, segEnd int64) {
	ops := s.buf[:n]
	s.seg = ops

	rets, sorted, anyStutter := slices.Grow(s.rets[:0], n)[:n], true, false
	for i := range ops {
		rets[i] = retKey{ops[i].ret, int32(i)}
		sorted = sorted && (i == 0 || ops[i-1].ret <= ops[i].ret)
		anyStutter = anyStutter || ops[i].stutter
	}
	s.anyStutter = anyStutter
	if !sorted {
		slices.SortFunc(rets, func(a, b retKey) int {
			if c := cmp.Compare(a.ret, b.ret); c != 0 {
				return c
			}
			return cmp.Compare(a.op, b.op)
		})
	}
	s.rets = rets

	np := 0 // pending ops invoked before the segment ends
	for np < len(s.pend) && s.pend[np].inv < segEnd {
		np++
	}
	callAt := slices.Grow(s.callAt[:0], n)[:n]
	ents := slices.Grow(s.ents[:0], 2+2*n+np)[:2+2*n+np]
	at, pi := int32(2), 0
	// Every op returns no earlier than it is invoked, so the last entry of
	// the completed runs is a return: the loop ends when the returns do.
	for ci, ri := 0, 0; ri < n; at++ {
		call := ci < n && ops[ci].inv <= rets[ri].ret
		switch {
		case pi < np && (call && s.pend[pi].inv < ops[ci].inv || !call && s.pend[pi].inv <= rets[ri].ret):
			ents[at] = segEntry{op: int32(pi), call: true, pending: true}
			pi++
		case call:
			ents[at] = segEntry{op: int32(ci), call: true, stutter: ops[ci].stutter}
			callAt[ci] = at
			ci++
		default:
			op := rets[ri].op
			ents[at] = segEntry{op: op}
			ents[callAt[op]].match = at
			ri++
		}
	}
	for ; pi < np; at++ {
		ents[at] = segEntry{op: int32(pi), call: true, pending: true}
		pi++
	}
	for i := int32(2); i < at; i++ {
		ents[i].prev, ents[i].next = i-1, i+1
	}
	ents[0] = segEntry{next: 2}
	ents[1] = segEntry{prev: at - 1}
	ents[2].prev, ents[at-1].next = entHead, entTail
	s.callAt, s.ents = callAt, ents

	words := (n + 63) / 64
	s.mask = slices.Grow(s.mask[:0], words)[:words]
	clear(s.mask)
	s.remaining = n
	s.memo.reset(words+2, n+1) // a segment that linearizes visits at least n+1 configurations
	s.next = s.next[:0]
	s.frag = s.frag[:0]
}

// lift unlinks entry i from the event list; unlift puts it back. The
// entry keeps its own links, so lifts undo in reverse order.
func (s *Stream) lift(i int32) {
	e := &s.ents[i]
	s.ents[e.prev].next, s.ents[e.next].prev = e.next, e.prev
}

func (s *Stream) unlift(i int32) {
	e := &s.ents[i]
	s.ents[e.prev].next, s.ents[e.next].prev = i, i
}

// memo is the per-segment set of visited configurations: an
// open-addressing table whose slots index into one flat array of
// fixed-width keys. A hash only picks the probe position; membership is
// decided by comparing the whole key, so a collision can cost work, never
// soundness. Slots are stamped with the segment's generation, which makes
// starting the next segment O(1) however large an earlier memo grew.
type memo struct {
	stride int        // words per key: the mask, the pending mask, the state
	keys   []uint64   // n keys of stride words each
	slots  []memoSlot // power-of-two sized, at most half full
	gen    uint32
	n      int
}

type memoSlot struct {
	gen uint32 // live iff equal to memo.gen
	key int32
}

const memoMinSlots = 1 << 6

func (m *memo) reset(stride, expect int) {
	m.stride, m.keys, m.n = stride, slices.Grow(m.keys[:0], stride*expect), 0
	if m.slots == nil {
		m.slots = make([]memoSlot, memoMinSlots)
	}
	if m.gen++; m.gen == 0 { // wrapped: stale stamps could read as live
		clear(m.slots)
		m.gen = 1
	}
}

func hashKey(k []uint64) uint64 {
	h := uint64(len(k))
	for _, w := range k {
		h = mix(h ^ w)
	}
	return h
}

// find returns the slot holding k, or the empty slot where it belongs.
func (m *memo) find(k []uint64) (slot int, found bool) {
	msk := len(m.slots) - 1
	for i := int(hashKey(k)) & msk; ; i = (i + 1) & msk {
		sl := m.slots[i]
		if sl.gen != m.gen {
			return i, false
		}
		if at := int(sl.key) * m.stride; slices.Equal(m.keys[at:at+m.stride], k) {
			return i, true
		}
	}
}

// add records the key just appended to keys as the n-th, in the empty slot
// find returned for it, and doubles the table before it is half full.
func (m *memo) add(slot int) {
	m.slots[slot] = memoSlot{gen: m.gen, key: int32(m.n)}
	m.n++
	if 2*m.n < len(m.slots) {
		return
	}
	m.slots = make([]memoSlot, 2*len(m.slots))
	m.gen = 1
	for k := 0; k < m.n; k++ {
		i, _ := m.find(m.keys[k*m.stride : (k+1)*m.stride])
		m.slots[i] = memoSlot{gen: m.gen, key: int32(k)}
	}
}

// visit memoizes the configuration (linearized mask, pending mask, state),
// reporting whether it is new. Keys are compared exactly — never by hash
// alone — so a collision can only cost work, not soundness.
func (s *Stream) visit(state stateID, pendUsed uint64) bool {
	m := &s.memo
	at := len(m.keys)
	m.keys = append(append(m.keys, s.mask...), pendUsed, uint64(state))
	slot, seen := m.find(m.keys[at:])
	if seen {
		m.keys = m.keys[:at]
		return false
	}
	if m.n >= s.cfg.MaxConfigs {
		m.keys = m.keys[:at]
		s.err = fmt.Errorf("linearize: segment exceeded the %d-configuration budget (raise MaxConfigs)", s.cfg.MaxConfigs)
		return false
	}
	m.add(slot)
	return true
}

// take linearizes the completed call entry i (unlinking it and its return
// entry), explores from state, and undoes the step.
func (s *Stream) take(i int32, state stateID, pendUsed uint64) {
	e := s.ents[i]
	s.lift(i)
	s.lift(e.match)
	s.mask[e.op>>6] |= 1 << uint(e.op&63)
	s.remaining--
	s.explore(&s.seg[e.op].req, state, pendUsed)
	s.remaining++
	s.mask[e.op>>6] &^= 1 << uint(e.op&63)
	s.unlift(e.match)
	s.unlift(i)
}

// explore continues the search below a step that linearized r.
func (s *Stream) explore(r *spec.Request, state stateID, pendUsed uint64) {
	if s.track {
		s.frag = append(s.frag, *r)
	}
	s.dfs(state, pendUsed)
	if s.track {
		s.frag = s.frag[:len(s.frag)-1]
	}
}

// dfs explores every linearization order of the segment from the given
// configuration, recording all reachable terminal configurations.
// Candidates are exactly the call entries before the first return entry
// of the remaining event list (Wing–Gong: an op may linearize next iff no
// other remaining completed op returned before it was invoked).
func (s *Stream) dfs(state stateID, pendUsed uint64) {
	if s.err != nil || !s.visit(state, pendUsed) {
		return
	}
	if s.remaining == 0 {
		// A terminal configuration, reached for the first time (the memo
		// spans the whole segment). Keep going below: unused pending ops
		// may still take effect here, yielding further terminals.
		c := streamCfg{state: state, pendUsed: pendUsed}
		if s.track {
			base := s.frontier[s.base].witness
			c.witness = append(append(make(spec.History, 0, len(base)+len(s.frag)), base...), s.frag...)
		}
		s.next = append(s.next, c)
	}
	// Stutter rule: a completed candidate whose (op, resp) pair the type
	// declares StutterSafe — a response match implies a self-loop in every
	// state — commutes with every other choice once applicable, and as a
	// candidate no remaining operation real-time-precedes it, so any
	// linearization of the rest can be rewritten with it first. Take it
	// greedily and skip sibling exploration; without this, windows of
	// identical commuting operations (64 concurrent TAS losers, say)
	// explode into 2^c masked configurations.
	if s.anyStutter {
		for i := s.ents[entHead].next; s.ents[i].call; i = s.ents[i].next {
			if !s.ents[i].stutter {
				continue
			}
			o := &s.seg[s.ents[i].op]
			if next, resp := s.in.apply(state, o.op, &o.req); next == state && resp == o.resp {
				s.take(i, state, pendUsed)
				return
			}
		}
	}
	// The tail sentinel is not a call, so it ends the candidate prefix just
	// as the first return entry does.
	for i := s.ents[entHead].next; s.ents[i].call; i = s.ents[i].next {
		e := s.ents[i]
		if e.pending {
			if pendUsed&(1<<uint(e.op)) != 0 {
				continue
			}
			// The pending op takes effect here with whatever response the
			// spec gives it; not choosing it anywhere leaves it without
			// effect (both fates the checker must admit).
			p := &s.pend[e.op]
			next, _ := s.in.apply(state, p.op, &p.req)
			s.explore(&p.req, next, pendUsed|1<<uint(e.op))
			continue
		}
		o := &s.seg[e.op]
		if next, resp := s.in.apply(state, o.op, &o.req); resp == o.resp {
			s.take(i, next, pendUsed)
		} // else it cannot linearize here; maybe in another order
	}
}

// failReason localizes the failed segment: the stamp window, its size, and
// a few of its operations.
func (s *Stream) failReason() string {
	ops := s.seg
	var sample []string
	for i := range ops {
		if i == 6 {
			sample = append(sample, "…")
			break
		}
		sample = append(sample, fmt.Sprintf("%v->%d", ops[i].req, ops[i].resp))
	}
	return fmt.Sprintf("no linearization for window of %d ops, stamps [%d..%d] (%d pending carried): %s",
		len(ops), ops[0].inv, ops[len(ops)-1].prefMax, len(s.pend), strings.Join(sample, " "))
}

// pollEvery is how many pushes pass between two looks at whether the
// projection's verdict can still matter.
const pollEvery = 1024

// checkProjection streams one object's projection of ops through a fresh
// Stream: the operations ops[idx[0]], ops[idx[1]], … (all of ops, in slice
// order, when idx is nil), sorted here by invocation stamp first unless
// the caller saw them in order already. ops itself is only read. A
// non-nil abandoned is polled now and then; once it reports true the
// result is garbage the caller has promised not to read.
func checkProjection(t spec.Type, ops []trace.Op, idx []int32, sorted bool, cfg JITConfig, abandoned func() bool) (Result, Stats, error) {
	if !sorted {
		// Stable, so operations invoked at the same stamp keep their
		// history order: the outcome is a function of the history alone.
		slices.SortStableFunc(idx, func(a, b int32) int { return cmp.Compare(ops[a].Inv, ops[b].Inv) })
	}
	n := len(ops)
	if idx != nil {
		n = len(idx)
	}
	s := NewStream(t, cfg)
	for k := 0; k < n; k++ {
		if k%pollEvery == 0 && abandoned != nil && abandoned() {
			return Result{}, Stats{}, nil
		}
		at := k
		if idx != nil {
			at = int(idx[k])
		}
		if err := s.push(&ops[at]); err != nil {
			return Result{}, s.Stats(), err
		}
		if s.failed != nil {
			break // the verdict is in; the rest would only be drained
		}
	}
	r, err := s.Finish()
	return r, s.Stats(), err
}

// CheckJIT decides linearizability of ops against t with the streaming
// JIT checker (committed responses must match, pending ops may take effect
// or not, aborted ops are a caller error). Witness tracking is enabled
// automatically for histories small enough to afford it. ops is neither
// copied nor reordered: a history already in invocation order (a
// recorder's output is) is pushed as it stands, any other through a sorted
// index.
func CheckJIT(t spec.Type, ops []trace.Op, cfg JITConfig) (Result, Stats, error) {
	if !cfg.Witness && len(ops) <= 4096 {
		cfg.Witness = true
	}
	if slices.IsSortedFunc(ops, func(a, b trace.Op) int { return cmp.Compare(a.Inv, b.Inv) }) {
		return checkProjection(t, ops, nil, true, cfg, nil)
	}
	idx := make([]int32, len(ops))
	for i := range idx {
		idx[i] = int32(i)
	}
	return checkProjection(t, ops, idx, false, cfg, nil)
}

// parallelMinOps is the history size from which CheckObjects checks
// objects on their own goroutines. Chosen by measurement on the 2-core
// reference box: a tas+fai history of 8192 operations verifies in about
// 3 ms either way (waking the second core costs what it saves), one of
// 16384 in 5.5 ms instead of 7.0; the model-checking tier calls in with a
// dozen operations once per explored execution.
const parallelMinOps = 1 << 13

// object is one module's share of a CheckObjects call.
type object struct {
	t      spec.Type
	idx    []int32 // positions of its operations in the history
	sorted bool    // idx is in invocation order as filled
	res    Result
	stats  Stats
	err    error
}

// CheckObjects checks a composed history object-by-object: ops are
// partitioned by their Module label and each projection is checked
// against its own sequential type. By the Herlihy–Wing locality theorem
// (P-compositionality) the composition is linearizable iff every
// per-object projection is, so the verdict is the conjunction. Stats are
// folded across objects; the Result of the first failing object (in
// module order) is returned with its module named.
//
// Locality also makes the projections independent, so on a history of
// parallelMinOps operations or more they are checked concurrently, at most
// GOMAXPROCS at a time. What is returned does not depend on which
// finishes first: it is assembled afterwards in module order — stats
// folded up to and including the first object that failed or erred, that
// object's verdict returned — exactly what checking them one after the
// other returns. ops is only read: each object gets an index of its
// operations, not a copy, and no witness is tracked since none is
// returned.
func CheckObjects(objects map[string]spec.Type, ops []trace.Op, cfg JITConfig) (Result, Stats, error) {
	cfg.Witness = false
	mods := make([]string, 0, len(objects))
	for m := range objects {
		mods = append(mods, m)
	}
	sort.Strings(mods)

	// Labels come in runs, or from a handful of objects: try the last
	// answer, then the first few names, then search the sorted list.
	last := 0
	find := func(m string) (int, bool) {
		if last < len(mods) && mods[last] == m {
			return last, true
		}
		for j := 0; j < len(mods) && j < 4; j++ {
			if mods[j] == m {
				last = j
				return j, true
			}
		}
		j := sort.SearchStrings(mods, m)
		if j == len(mods) || mods[j] != m {
			return 0, false
		}
		last = j
		return j, true
	}
	// One pass over the history resolves every label, counts each object's
	// operations and notes whether they come in invocation order; the
	// second, over the labels alone, deals the positions out into one
	// exact-size index array, a sub-slice per object.
	objs := make([]object, len(mods))
	for j, m := range mods {
		objs[j] = object{t: objects[m], sorted: true}
	}
	both := make([]int32, 2*len(ops))
	label, idx := both[:len(ops)], both[len(ops):]
	counts, lastInv := make([]int, len(mods)), make([]int64, len(mods))
	for i := range ops {
		j, ok := find(ops[i].Module)
		if !ok {
			return Result{}, Stats{}, fmt.Errorf("linearize: operation %v labeled with unknown module %q", ops[i].Req, ops[i].Module)
		}
		label[i] = int32(j)
		if counts[j] > 0 && ops[i].Inv < lastInv[j] {
			objs[j].sorted = false
		}
		counts[j]++
		lastInv[j] = ops[i].Inv
	}
	for j := range objs {
		objs[j].idx = idx[:0:counts[j]]
		idx = idx[counts[j]:]
	}
	for i, j := range label {
		objs[j].idx = append(objs[j].idx, int32(i))
	}

	// firstBad is the least module index known to have failed or erred;
	// nothing after it is folded, so nothing after it needs finishing.
	var firstBad atomic.Int32
	firstBad.Store(int32(len(objs)))
	check := func(j int) {
		o := &objs[j]
		o.res, o.stats, o.err = checkProjection(o.t, ops, o.idx, o.sorted, cfg, func() bool { return firstBad.Load() < int32(j) })
		for failed := o.err != nil || !o.res.Ok; failed; {
			if bad := firstBad.Load(); int32(j) >= bad || firstBad.CompareAndSwap(bad, int32(j)) {
				break
			}
		}
	}
	if workers := min(len(objs), runtime.GOMAXPROCS(0)); workers < 2 || len(ops) < parallelMinOps {
		for j := 0; j < len(objs) && int32(j) <= firstBad.Load(); j++ {
			check(j)
		}
	} else {
		var wg sync.WaitGroup
		var claimed atomic.Int32
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					j := int(claimed.Add(1)) - 1
					if j >= len(objs) || int32(j) > firstBad.Load() {
						return
					}
					check(j)
				}
			}()
		}
		wg.Wait()
	}

	// Every object up to and including firstBad ran to completion.
	var stats Stats
	for j := range objs {
		o := &objs[j]
		stats.Fold(o.stats)
		if o.err != nil {
			return Result{}, stats, fmt.Errorf("object %q: %w", mods[j], o.err)
		}
		if !o.res.Ok {
			o.res.Reason = fmt.Sprintf("object %q (%s): %s", mods[j], o.t.Name(), o.res.Reason)
			return o.res, stats, nil
		}
	}
	return Result{Ok: true}, stats, nil
}
