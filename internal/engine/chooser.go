package engine

import (
	"fmt"
	"sort"

	"repro/internal/memory"
	"repro/internal/sched"
)

// candidate is one branch at a decision point: the transition plus the
// pending access backing it (meaningless for crash transitions).
type candidate struct {
	t   Transition
	acc memory.Access
}

// independent reports whether transitions a and b commute from the current
// state: transitions of the same process never do; a crash commutes with
// any other process's transition (it performs no access); two steps commute
// unless their accesses conflict.
func independent(a, b candidate) bool {
	if a.t.Proc == b.t.Proc {
		return false
	}
	if a.t.Crash || b.t.Crash {
		return true
	}
	return !a.acc.Conflicts(b.acc)
}

// resolve looks a transition up among the candidates of the decision point
// it is enabled at, recovering its pending access. Crash transitions need
// none: they commute with every other process's transitions regardless.
func resolve(enabled []candidate, t Transition) candidate {
	if !t.Crash {
		for _, en := range enabled {
			if en.t == t {
				return en
			}
		}
	}
	return candidate{t: t}
}

// itemChooser drives the executions of one worker, one work item at a
// time: it replays the item's prefix, then at every deeper decision point
// takes the first branch not covered by the sleep set and — depending on
// the prune mode — enqueues sibling branches as new work items (all of them
// under PruneNone/PruneSleep; only crash branches under PruneSourceDPOR,
// whose step siblings are added later by race analysis).
//
// The value lives as long as its worker and is re-armed per item by begin:
// everything an attempt needs and nothing outlives — the path, the
// transition/access/node records, sleep sets, candidate lists, the race
// analysis tables — is scratch held here and reused, so a run allocates
// only what it hands to the rest of the walk: decision nodes and frontier
// items. Whatever a longer-lived value keeps from this scratch (a failing
// path) is copied at the moment it is retained.
type itemChooser struct {
	e *engine
	w int // worker index: the obs counter shard this run writes

	// Per-item state, reset by begin.
	env       *memory.Env
	prefix    []Transition // the item's choice prefix, root to spawn transition
	itemSleep []Transition // the item's sleep set, in effect once the prefix is replayed
	resumed   int          // the item's WorkItem.resumed
	crashed   uint64       // bitmask of processes crashed so far
	pruned    int
	bad       error
	aborted   bool // all branches asleep or state cached: drain the run
	cacheHit  bool // aborted because the state key was already claimed
	// lastNode is the deepest branching decision node on the path walked so
	// far (source-DPOR only): the parent of the next node created, and the
	// anchor item prefixes are relative to.
	lastNode *dnode

	// Worker scratch, reused across items. path is the canonical branch
	// index taken at every step and trans the transition; both are kept in
	// every mode (sibling prefixes are cut from trans). accs (the granted
	// access, zero for crash events) and nodes (the branching decision node
	// at every depth, nil where fewer than two processes were parked) are
	// the rest of the source-DPOR trace record. begin lays the item's prefix
	// out in trans and nodes up front; the replay zone re-slices over it.
	path     []int
	trans    []Transition
	accs     []memory.Access
	nodes    []*dnode
	steps    []int        // per-process granted-step counts so far
	sleep    []Transition // sleep set at the current decision point (own backing, filtered in place)
	cands    []candidate  // per-decision: the candidate branches
	woken    []candidate  // per-decision: the sleep-filtered candidates
	explored []Transition // per-decision: branches launched so far, for sibling sleep sets
	sl       []Transition // per-sibling: the sleep set being computed, before its item copies it
	items    []WorkItem   // per-decision: the sibling items, before they are enqueued
	scratch  dporScratch  // race-analysis tables
}

// begin re-arms the chooser for one work item on the given environment: the
// per-item state is cleared and the item's prefix — for a source-DPOR item
// the spawning node's root path plus the item's own tail — is laid out in
// the trans and nodes scratch.
func (c *itemChooser) begin(item WorkItem, env *memory.Env) {
	c.env = env
	c.itemSleep, c.resumed = item.Sleep, item.resumed
	c.crashed, c.pruned, c.bad, c.aborted, c.cacheHit = 0, 0, nil, false, false
	c.lastNode = nil
	if n := env.N(); len(c.steps) != n {
		c.steps = make([]int, n)
	} else {
		clear(c.steps)
	}
	c.path = c.path[:0]
	c.sleep = c.sleep[:0]

	base := 0
	if item.node != nil {
		base = item.node.depth
	}
	d := base + len(item.Prefix)
	// The previous run's trans and nodes records stay valid up to prev
	// unless regrown.
	prev := min(len(c.trans), len(c.nodes))
	if cap(c.trans) < d {
		c.trans = make([]Transition, d, 2*d)
		prev = 0
	}
	c.prefix = c.trans[:d]
	copy(c.prefix[base:], item.Prefix)
	c.trans = c.trans[:0]
	if c.e.cfg.Prune != PruneSourceDPOR {
		return
	}
	if cap(c.nodes) < d {
		c.nodes = make([]*dnode, d, 2*d)
		prev = 0
	}
	if cap(c.accs) < d {
		c.accs = make([]memory.Access, d, 2*d)
	}
	// Lay out the node chain bottom-up, clearing the depths between chain
	// nodes. The walk stops at the first node the previous run passed
	// through: that run's records up to it are this item's root path (a
	// node's root path is unique), which in a depth-first walk usually
	// spares the whole chain.
	nodes := c.nodes[:d]
	hi, nd := d, item.node
	for ; nd != nil && (nd.depth >= prev || nodes[nd.depth] != nd); nd = nd.parent {
		clear(nodes[nd.depth+1 : hi])
		nodes[nd.depth] = nd
		copy(c.prefix[nd.depth-len(nd.seg):], nd.seg)
		hi = nd.depth
	}
	lo := 0
	if nd != nil {
		lo = nd.depth + 1
	}
	clear(nodes[lo:hi])
	c.nodes, c.accs = c.nodes[:0], c.accs[:0]
}

// diverged is the error of a run that cannot replay its item's prefix from
// step on. The tree is deterministic, so a recorded transition is always
// re-enabled on replay: a failing prefix read from a checkpoint makes the
// checkpoint corrupt, and any other means the harness is nondeterministic
// (e.g. shared state escaping the closure).
func (c *itemChooser) diverged(step int) error {
	what := fmt.Sprintf("step %d cannot replay %+v", step, c.prefix[step])
	if c.resumed > 0 {
		return fmt.Errorf("engine: corrupt checkpoint: item %d: %s", c.resumed-1, what)
	}
	return fmt.Errorf("engine: nondeterministic harness: %s", what)
}

// newItem builds the frontier item that branches off with transition t
// after the steps mid beyond node (the whole path so far when node is nil),
// carrying the sleep set sl. mid and sl are scratch: the item gets its own
// copies, in one backing array.
func newItem(node *dnode, mid []Transition, t Transition, sl []Transition) WorkItem {
	k := len(mid) + 1
	buf := make([]Transition, k+len(sl))
	copy(buf, mid)
	buf[k-1] = t
	item := WorkItem{Prefix: buf[:k:k], node: node}
	if len(sl) > 0 {
		copy(buf[k:], sl)
		item.Sleep = buf[k:]
	}
	return item
}

// note records a taken choice in the per-process progress counters that,
// together with the memory fingerprint, identify the reached state.
func (c *itemChooser) note(t Transition) {
	if t.Crash {
		c.crashed |= 1 << uint(t.Proc)
	} else {
		c.steps[t.Proc]++
	}
}

// stateKey combines the memory fingerprint with the per-process progress
// counters, the crashed set, and the (order-normalized) sleep set. Two
// decision points with equal keys have — up to the caveats in DESIGN.md —
// identical futures and identical exploration obligations.
func (c *itemChooser) stateKey(fp memory.Fingerprint) cacheKey {
	h := memory.NewStateHash()
	for _, s := range c.steps {
		h.Add(uint64(s))
	}
	h.Add(c.crashed)
	if len(c.sleep) > 0 {
		sl := append([]Transition(nil), c.sleep...)
		sort.Slice(sl, func(i, j int) bool {
			if sl[i].Proc != sl[j].Proc {
				return sl[i].Proc < sl[j].Proc
			}
			return !sl[i].Crash && sl[j].Crash
		})
		for _, t := range sl {
			w := uint64(t.Proc) << 1
			if t.Crash {
				w |= 1
			}
			h.Add(w + 1) // +1 keeps the empty set distinct from {proc 0}
		}
	}
	return cacheKey{fp[0], fp[1], h.Sum()}
}

func (c *itemChooser) Choose(step int, parked sched.ProcSet, next []memory.Access) sched.Choice {
	if c.aborted {
		// Unwind the remaining processes; this run is abandoned.
		return sched.Choice{Proc: parked.Min(), Crash: true}
	}

	if step < len(c.prefix) {
		// Replay zone: ancestors already expanded these decision points, so
		// the canonical branch index — steps by process id, then crashes by
		// process id — is the number of parked processes below the
		// recorded one, without materializing the candidate list.
		want := c.prefix[step]
		if !parked.Has(want.Proc) || (want.Crash && !c.e.cfg.Crashes) {
			c.bad = c.diverged(step)
			c.aborted = true
			return sched.Choice{Proc: parked.Min(), Crash: true}
		}
		idx := (parked & (1<<uint(want.Proc) - 1)).Len()
		acc := next[want.Proc]
		if want.Crash {
			idx += parked.Len()
			acc = memory.Access{}
		}
		c.path = append(c.path, idx)
		c.note(want)
		// begin laid the prefix out in trans (and the item's decision nodes
		// in nodes): extending the records over a replayed step is a
		// re-slice.
		c.trans = c.trans[:step+1]
		if c.e.cfg.Prune == PruneSourceDPOR {
			c.accs = c.accs[:step+1]
			c.accs[step] = acc
			c.nodes = c.nodes[:step+1]
			if nd := c.nodes[step]; nd != nil {
				c.lastNode = nd
			}
		}
		if step == len(c.prefix)-1 {
			c.sleep = append(c.sleep, c.itemSleep...)
		}
		return sched.Choice{Proc: want.Proc, Crash: want.Crash}
	}

	// Enumeration zone: candidate branches in canonical order — steps by
	// process id, then (with Crashes) crashes by process id — built into a
	// buffer reused across decisions.
	cands := c.cands[:0]
	for m := parked; m != 0; m &= m - 1 {
		p := m.Min()
		cands = append(cands, candidate{t: Transition{Proc: p}, acc: next[p]})
	}
	if c.e.cfg.Crashes {
		for m := parked; m != 0; m &= m - 1 {
			p := m.Min()
			cands = append(cands, candidate{t: Transition{Proc: p, Crash: true}, acc: next[p]})
		}
	}
	c.cands = cands

	awake := cands
	if c.e.cfg.Prune != PruneNone && len(c.sleep) > 0 {
		awake = c.woken[:0]
		for _, cand := range cands {
			asleep := false
			for _, s := range c.sleep {
				if s == cand.t {
					asleep = true
					break
				}
			}
			if !asleep {
				awake = append(awake, cand)
			}
		}
		c.woken = awake
		c.pruned += len(cands) - len(awake)
		if len(awake) == 0 {
			c.aborted = true
			return sched.Choice{Proc: parked.Min(), Crash: true}
		}
	}

	if c.e.cfg.CacheStates && len(awake) > 1 {
		// State caching claims branching decision points by their state
		// key; a later arrival at an equal-state node abandons its run
		// (and thereby the whole duplicate subtree: the siblings it would
		// have enqueued are exactly the claimant's). Non-branching points
		// are skipped — their chains are claimed at the next branch.
		if fp, ok := c.env.Fingerprint(); ok {
			if c.e.obs != nil {
				c.e.obs.CacheLookups.Inc(c.w)
			}
			if !c.e.cache.claim(c.stateKey(fp)) {
				if c.e.obs != nil {
					c.e.obs.CacheHits.Inc(c.w)
				}
				c.cacheHit = true
				c.aborted = true
				return sched.Choice{Proc: parked.Min(), Crash: true}
			}
		}
	}

	chosen := awake[0]
	if c.e.cfg.Prune == PruneSourceDPOR {
		return c.chooseDPOR(step, parked.Len(), cands, awake, chosen)
	}

	if len(awake) > 1 {
		if c.e.cfg.MaxDepth > 0 && step >= c.e.cfg.MaxDepth {
			c.e.noteTruncated()
		} else {
			// Sibling i's sleep set accumulates every earlier branch (in
			// canonical order) it commutes with. Sleep sets are built in
			// canonical order but the items are enqueued in reverse, so
			// that the LIFO pop yields this node's siblings canonical-
			// first; deeper nodes' siblings are enqueued later and pop
			// earlier, which is also canonical (lex-least first). A
			// sequential budget-cut walk therefore covers exactly the
			// prefix the seed depth-first engine would have covered.
			explored := append(c.explored[:0], chosen.t)
			items := c.items[:0]
			for _, sib := range awake[1:] {
				sl := c.sl[:0]
				if c.e.cfg.Prune != PruneNone {
					sl = sleepFor(sl, c.sleep, explored, cands, sib)
					explored = append(explored, sib.t)
				}
				items = append(items, newItem(nil, c.trans, sib.t, sl))
				c.sl = sl
			}
			c.explored = explored
			c.enqueueReversed(items)
		}
	}

	// Advance: transitions dependent on the chosen one wake up.
	if c.e.cfg.Prune != PruneNone {
		c.advanceSleep(cands, chosen)
	}
	c.take(cands, chosen, nil)
	return sched.Choice{Proc: chosen.t.Proc, Crash: chosen.t.Crash}
}

// enqueueReversed hands a decision point's sibling items to the frontier
// last-first (so the LIFO pops them in canonical order) and returns the
// per-decision item scratch, cleared of the references it held.
func (c *itemChooser) enqueueReversed(items []WorkItem) {
	for i := len(items) - 1; i >= 0; i-- {
		c.e.enqueue(items[i])
	}
	clear(items)
	c.items = items[:0]
}

// take records the chosen branch — its canonical index, its transition
// and, under source-DPOR, its access and the branching decision node at this
// depth (nil when the point cannot be a backtrack target) — and advances
// the progress counters.
func (c *itemChooser) take(cands []candidate, chosen candidate, node *dnode) {
	for i, cand := range cands {
		if cand.t == chosen.t {
			c.path = append(c.path, i)
			break
		}
	}
	c.note(chosen.t)
	c.trans = append(c.trans, chosen.t)
	if c.e.cfg.Prune == PruneSourceDPOR {
		acc := chosen.acc
		if chosen.t.Crash {
			acc = memory.Access{}
		}
		c.accs = append(c.accs, acc)
		c.nodes = append(c.nodes, node)
	}
}

// sleepFor computes a newly launched branch's sleep set into dst — the
// single soundness-critical discipline both reductions share: the
// inherited sleeping transitions and the branches launched earlier from
// the same point (both resolved to their pending accesses among the
// candidates enabled there), each kept only if independent of the branch
// being launched (a dependent one would not commute past it, so its
// subtree is not covered elsewhere from here).
func sleepFor(dst, inherited, explored []Transition, enabled []candidate, branch candidate) []Transition {
	for _, s := range inherited {
		if independent(resolve(enabled, s), branch) {
			dst = append(dst, s)
		}
	}
	for _, ex := range explored {
		if independent(resolve(enabled, ex), branch) {
			dst = append(dst, ex)
		}
	}
	return dst
}
