package engine

// Source-DPOR: race-driven backtracking in the stateless work-queue walk.
//
// Where the legacy sleep-set mode eagerly enqueues every awake sibling of
// every decision point (a persistent set of "everything enabled", with
// sleep sets pruning re-orderings after the fact), source-DPOR inverts the
// burden of proof: each decision point launches a single branch, and an
// alternative branch is enqueued only when some completed execution
// exhibits a *reversible race* — two dependent events of different
// processes with no happens-before chain through intermediate events —
// whose reversal is not already covered by a scheduled branch or by the
// sleep set. This is the Explore/race/initials scheme of Abdulla, Aronis,
// Jonsson and Sagonas ("Optimal dynamic partial order reduction", POPL
// 2014), restricted to its source-set half, mapped onto this engine's
// prefix-replay architecture:
//
//   - Every branching decision point (two or more parked processes) that an
//     execution passes materializes a dnode, holding a pointer to the
//     nearest branching decision above it and the transitions taken since
//     (so the immutable prefix that reaches it is shared with its
//     ancestors, not copied), the parked candidates with their pending
//     accesses, the sleep set on arrival, and the mutable list of branches
//     launched from it so far. A work item names the node it branches off,
//     which puts every node along its prefix in reach, so a race discovered
//     deep in one execution can add a backtrack point at any shallower
//     decision node of the same path.
//   - After each execution (including sleep-set-aborted ones: their
//     executed prefix is real), the engine computes happens-before vector
//     bitsets over the trace and, for every newly appended event, scans
//     earlier conflicting events for reversible races. For a race (e, f) it
//     computes v = (the events between them not happens-after e) followed
//     by f, takes the initials of v — processes whose first event in v has
//     no happens-before predecessor within v — and, unless an initial is
//     already scheduled from (or asleep at) the node before e, enqueues one
//     (preferring proc(f)) as a new work item whose sleep set accumulates
//     the branches launched earlier from that node, exactly as the legacy
//     mode computes sibling sleep sets.
//   - Crash transitions perform no access, so they race with nothing; with
//     Config.Crashes they are enqueued eagerly at every decision point (as
//     in the legacy mode) and collapsed by sleep sets.
//
// At Workers = 1 the LIFO queue makes this the sequential depth-first
// source-DPOR, and every report field is deterministic. With more workers
// the order in which races are discovered — and therefore the sleep sets of
// late additions, the attempt/pruned/backtrack counts, and which
// representative path of a failing behaviour completes first — is
// timing-dependent, but the reduction stays sound and the deterministic
// report fields stay exact: every completed walk still finishes exactly one
// interleaving per trace class (the per-node launch order, whatever it was,
// is a valid sleep-set order), so the verdict, the execution count and the
// terminal-state coverage are unchanged for any worker count (the reduction
// property tests pin this). Backtracking state lives in pointers, not
// serializable data, which is why source-DPOR walks report no Checkpoint
// and reject Resume.

import (
	"sync"

	"repro/internal/memory"
	"repro/internal/sched"
)

// dporScratch holds one worker's reusable race-analysis tables (the trace
// record they are computed from is the chooser's own scratch).
type dporScratch struct {
	hb       []uint64
	v        []int
	initials []Transition
	lastProc []int
	objs     map[uint64]*objDep
	objPool  []*objDep
	objUsed  int
}

// objDep tracks one object's immediate dependence frontier while building
// happens-before: the last write and the reads since it.
type objDep struct {
	lastWrite int
	reads     []int
}

// depFor returns the (cleared) tracker for an object, pooled across runs.
func (s *dporScratch) depFor(obj uint64) *objDep {
	if od, ok := s.objs[obj]; ok {
		return od
	}
	if s.objUsed == len(s.objPool) {
		s.objPool = append(s.objPool, &objDep{})
	}
	od := s.objPool[s.objUsed]
	s.objUsed++
	od.lastWrite = -1
	od.reads = od.reads[:0]
	s.objs[obj] = od
	return od
}

// dnode is one branching decision point of a source-DPOR walk: the
// potential target of race-driven backtrack additions. Everything but
// explored is immutable after creation; explored is guarded by mu.
//
// Nodes form a tree through parent, and a node stores only the transitions
// between its parent's decision and its own — the root-to-node prefix is
// the concatenation of the segs up the chain — so what a run retains is
// proportional to the decisions it was first to take, not to its depth.
// seg, sleepAt and explored share one backing array, sized at creation for
// the most branches the point can ever launch (one per enabled candidate):
// a node is three allocations.
type dnode struct {
	mu      sync.Mutex
	depth   int
	parent  *dnode       // nearest branching decision above (nil: none)
	seg     []Transition // transitions at decisions parent.depth (or 0) .. depth-1
	sleepAt []Transition // sleep set on arrival (SDPOR's Sleep(E'))
	enabled []candidate  // parked transitions + pending accesses here

	// explored lists the branches launched from here, in launch order: the
	// one the creating run took, eagerly enqueued crash siblings, and every
	// backtrack addition. It is both the "already scheduled" set a new race
	// is checked against and the sequence a late branch's sleep set is
	// accumulated over (tiny: linear scans).
	explored []Transition
}

// newNode materializes the branching decision point the run is at (depth
// len(c.trans), candidates cands, sleep set c.sleep), about to take chosen.
func (c *itemChooser) newNode(cands []candidate, chosen Transition) *dnode {
	step := len(c.trans)
	from := 0
	if c.lastNode != nil {
		from = c.lastNode.depth
	}
	seg := c.trans[from:step]
	k := len(seg) + len(c.sleep)
	ts := make([]Transition, k, k+len(cands))
	copy(ts, seg)
	copy(ts[len(seg):], c.sleep)
	return &dnode{
		depth:    step,
		parent:   c.lastNode,
		seg:      ts[:len(seg):len(seg)],
		sleepAt:  ts[len(seg):k:k],
		enabled:  append([]candidate(nil), cands...),
		explored: append(ts[k:], chosen),
	}
}

// tracked reports whether t is already launched or scheduled from n.
// Callers must hold n.mu (or be the creating run, pre-publication).
func (n *dnode) tracked(t Transition) bool {
	for _, x := range n.explored {
		if x == t {
			return true
		}
	}
	return false
}

// chooseDPOR is the enumeration-zone decision of the source-DPOR mode:
// take the first awake branch, materialize a decision node when the point
// is branching, eagerly enqueue awake crash siblings, and leave step
// siblings to the race analysis of completed traces.
func (c *itemChooser) chooseDPOR(step int, parked []sched.ProcState, cands, awake []candidate, chosen candidate) sched.Choice {
	e := c.e
	if e.cfg.MaxDepth > 0 && step >= e.cfg.MaxDepth {
		// Below the depth bound nothing backtracks: no node, no siblings.
		if len(awake) > 1 {
			e.noteTruncated()
		}
		c.advanceSleep(cands, chosen)
		c.take(cands, chosen, nil)
		return sched.Choice{Proc: chosen.t.Proc, Crash: chosen.t.Crash}
	}

	var node *dnode
	if len(parked) >= 2 {
		node = c.newNode(cands, chosen.t)
		c.lastNode = node
	}

	if e.cfg.Crashes {
		// Crash branches race with nothing, so the analysis would never
		// add them; enqueue them eagerly, with the same accumulated sleep
		// sets as the legacy mode (reversed for the canonical LIFO pop).
		// Their prefixes are relative to the nearest decision node — this
		// point's own, or with a single process parked an ancestor's, with
		// the steps since then spelled out.
		var mid []Transition
		if c.lastNode == nil {
			mid = c.trans
		} else {
			mid = c.trans[c.lastNode.depth:]
		}
		explored := append(c.explored[:0], chosen.t)
		items := c.items[:0]
		for _, sib := range awake {
			if !sib.t.Crash || sib.t == chosen.t {
				continue
			}
			sl := sleepFor(c.sl[:0], c.sleep, explored, cands, sib)
			c.sl = sl
			explored = append(explored, sib.t)
			items = append(items, newItem(c.lastNode, mid, sib.t, sl))
			if node != nil {
				node.explored = append(node.explored, sib.t)
			}
		}
		c.explored = explored
		c.enqueueReversed(items)
	}

	c.advanceSleep(cands, chosen)
	c.take(cands, chosen, node)
	return sched.Choice{Proc: chosen.t.Proc, Crash: chosen.t.Crash}
}

// advanceSleep keeps only the sleeping transitions independent of the
// chosen one (dependent sleepers wake up), resolving each against this
// decision point's candidates: a sleeping process is by construction still
// parked at the access it slept on.
func (c *itemChooser) advanceSleep(cands []candidate, chosen candidate) {
	next := c.sleep[:0]
	for _, s := range c.sleep {
		if independent(resolve(cands, s), chosen) {
			next = append(next, s)
		}
	}
	c.sleep = next
}

// analyzeRaces performs the source-DPOR race analysis over one executed
// trace: for every event this run was first to take — the spawn transition
// at the end of its item prefix (appended by no enumeration: the item was
// constructed with it) plus everything appended beyond the replayed prefix
// — find reversible races with earlier events and schedule uncovered
// reversals at the decision node before the earlier event. Earlier
// replay-zone pairs were analyzed by the ancestor run that first took the
// later event, so each pair along any path is analyzed exactly once.
func (e *engine) analyzeRaces(c *itemChooser) {
	m := len(c.trans)
	start := len(c.prefix) - 1
	if start < 0 {
		start = 0
	}
	if start >= m {
		return
	}

	// Happens-before as per-event bitsets: hb(j) ∋ k iff event k strictly
	// happens-before event j (the transitive closure of dependence along
	// the trace order). Closure only needs each event's *immediate*
	// dependence frontier — its program-order predecessor, the last write
	// of its object, and (for writes) the reads since that write; every
	// earlier dependent event is already in those rows. Buffers are
	// per-worker scratch.
	s := &c.scratch
	words := (m + 63) >> 6
	if need := m * words; cap(s.hb) < need {
		s.hb = make([]uint64, need)
	} else {
		clear(s.hb[:m*words])
	}
	hb := s.hb[:m*words]
	row := func(j int) []uint64 { return hb[j*words : (j+1)*words] }
	bit := func(r []uint64, k int) bool { return r[k>>6]&(1<<(uint(k)&63)) != 0 }
	n := c.env.N()
	if cap(s.lastProc) < n {
		s.lastProc = make([]int, n)
	}
	lastProc := s.lastProc[:n]
	for i := range lastProc {
		lastProc[i] = -1
	}
	if s.objs == nil {
		s.objs = make(map[uint64]*objDep)
	} else {
		clear(s.objs)
	}
	s.objUsed = 0
	join := func(rj []uint64, k int) {
		rk := row(k)
		for w := range rj {
			rj[w] |= rk[w]
		}
		rj[k>>6] |= 1 << (uint(k) & 63)
	}
	for j := 0; j < m; j++ {
		rj := row(j)
		if k := lastProc[c.trans[j].Proc]; k >= 0 {
			join(rj, k)
		}
		lastProc[c.trans[j].Proc] = j
		if c.trans[j].Crash {
			continue // a crash performs no access
		}
		od := s.depFor(c.accs[j].Obj)
		if c.accs[j].Kind == memory.OpRead {
			if od.lastWrite >= 0 {
				join(rj, od.lastWrite)
			}
			od.reads = append(od.reads, j)
		} else {
			if od.lastWrite >= 0 {
				join(rj, od.lastWrite)
			}
			for _, r := range od.reads {
				join(rj, r)
			}
			od.lastWrite = j
			od.reads = od.reads[:0]
		}
	}

	for j := start; j < m; j++ {
		if c.trans[j].Crash {
			continue // crash events access nothing: no races
		}
		rj := row(j)
		for i := j - 1; i >= 0; i-- {
			if c.trans[i].Crash || c.trans[i].Proc == c.trans[j].Proc {
				continue
			}
			if !c.accs[i].Conflicts(c.accs[j]) {
				continue
			}
			// Reversible iff no intermediate event g with i <hb g <hb j:
			// then e[i] and e[j] are adjacent in some equivalent trace and
			// their order could genuinely be flipped.
			reversible := true
			for g := i + 1; g < j; g++ {
				if bit(rj, g) && bit(row(g), i) {
					reversible = false
					break
				}
			}
			if !reversible {
				continue
			}
			node := c.nodes[i]
			if node == nil {
				continue // defensive: a racing partner implies >= 2 parked
			}
			e.raceBacktrack(c, node, i, j, row, bit)
		}
	}
}

// raceBacktrack handles one reversible race (e[i], e[j]): compute the
// initials of the suffix that must be reordered and, unless one is already
// covered at the node before e[i], schedule one as a new branch there.
func (e *engine) raceBacktrack(c *itemChooser, node *dnode, i, j int, row func(int) []uint64, bit func([]uint64, int) bool) {
	// v = the events between the racing pair that do not happen-after
	// e[i], then e[j] itself: the subsequence that can run before e[i] in
	// the reversed order.
	v := c.scratch.v[:0]
	for k := i + 1; k < j; k++ {
		if !bit(row(k), i) {
			v = append(v, k)
		}
	}
	v = append(v, j)
	c.scratch.v = v

	// Initials of v: processes whose first event in v has no
	// happens-before predecessor within v — each could be the first
	// transition of the reordered suffix. (Restriction of global
	// happens-before to v is exact: any hb-path between v-members routes
	// only through events not happening-after e[i], which are in v.)
	initials := c.scratch.initials[:0]
	var seen uint64 // by process id; Env process counts are word-small
	for idx, k := range v {
		p := c.trans[k].Proc
		if seen&(1<<uint(p)) != 0 {
			continue
		}
		seen |= 1 << uint(p)
		rk := row(k)
		free := true
		for _, w := range v[:idx] {
			if bit(rk, w) {
				free = false
				break
			}
		}
		if free {
			initials = append(initials, c.trans[k])
		}
	}
	c.scratch.initials = initials
	node.addBacktrack(c, initials, c.trans[j])
}

// addBacktrack schedules one of the race's initials as a new branch from
// this node, unless an initial is already scheduled from it or asleep at it
// (either way the reversal is covered). The new branch's sleep set
// accumulates the branches launched from this node before it, filtered by
// independence — the same discipline the legacy mode applies to eagerly
// enqueued siblings, just applied at discovery time. c is the discovering
// run's chooser, for its scratch.
func (n *dnode) addBacktrack(c *itemChooser, initials []Transition, pref Transition) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, t := range initials {
		if n.tracked(t) {
			return
		}
		for _, s := range n.sleepAt {
			if s == t {
				return
			}
		}
	}
	if len(initials) == 0 {
		return
	}
	t := initials[0]
	for _, cand := range initials {
		if cand == pref {
			t = pref
			break
		}
	}
	sl := sleepFor(c.sl[:0], n.sleepAt, n.explored, n.enabled, resolve(n.enabled, t))
	c.sl = sl
	n.explored = append(n.explored, t)
	e := c.e
	e.backtracks.Add(1)
	if e.obs != nil {
		e.obs.Backtracks.Inc(0)
	}
	// The item is this node plus one transition.
	e.enqueue(newItem(n, nil, t, sl))
}

// cacheKey identifies a decision-point state: both fingerprint lanes plus
// the hash of (per-process progress, crashed set, sleep set).
type cacheKey [3]uint64

// cacheShards is the shard count of the cross-worker state cache. 64
// shards keep claim contention negligible at any realistic worker count.
const cacheShards = 64

// stateCache is the sharded set of claimed decision-point state keys,
// shared by every worker of a Run (see Config.CacheStates).
type stateCache struct {
	shards [cacheShards]struct {
		mu sync.Mutex
		m  map[cacheKey]struct{}
	}
}

func newStateCache() *stateCache {
	c := &stateCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[cacheKey]struct{})
	}
	return c
}

// claim records a decision-point state key, reporting whether this call was
// the first to claim it. The first claimant's item (and the sibling items
// it spawns) explore the subtree; later visitors abandon.
func (c *stateCache) claim(k cacheKey) bool {
	s := &c.shards[k[0]&(cacheShards-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, seen := s.m[k]; seen {
		return false
	}
	s.m[k] = struct{}{}
	return true
}

// fingerprintLess orders fingerprints for the sorted coverage witness.
func fingerprintLess(a, b memory.Fingerprint) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}
