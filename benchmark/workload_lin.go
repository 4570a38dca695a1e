package main

// lin-wide-1m: the linearizability layer on its own, on wide windows. A
// seeded generator synthesizes a composed test-and-set + fetch-and-
// increment history that is linearizable by construction (stamps jittered
// around a known commit order) and forces a quiescent cut every 192
// commits, which yields windows of about 511 operations and about 512
// memoized configurations each — the regime where the checker's DFS,
// memoization and state interning dominate, not its per-Push bookkeeping.
// stress-tasfai-online exercises the same layer on windows of about 7, so
// a change that helps one window shape at the other's expense shows.

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/linearize"
	"repro/internal/spec"
	"repro/internal/trace"
)

type linSize struct {
	ops    int // history length, one unit = one CheckObjects call on it
	prefix int // length of the prefix the accept/reject gates run on
}

var (
	linFull = linSize{ops: 1 << 20, prefix: 1 << 16}
	linToy  = linSize{ops: 1 << 14, prefix: 1 << 12}
)

// The generator's shape: commits are spread round-robin over linProcs
// processes, every stamp is jittered by up to linJitter around twice its
// commit index, and every linChunk commits the stamp base jumps past all
// earlier returns.
const (
	linProcs  = 64
	linChunk  = 192
	linJitter = 7
)

var linObjects = map[string]spec.Type{"tas": spec.TASType{}, "fai": spec.FetchIncType{}}

// synthHistory builds the seeded history: even commits take a ticket from
// the counter, odd commits race the one-shot test-and-set.
func synthHistory(seed int64, total int) []trace.Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]trace.Op, 0, total)
	base, faiNext := int64(0), int64(0)
	tasSet := false
	for k := 0; k < total; k++ {
		if k%linChunk == 0 {
			base += 64
		}
		commit := base + int64(2*k)
		o := trace.Op{
			Proc: k % linProcs,
			Inv:  commit - rng.Int63n(linJitter),
			Ret:  commit + rng.Int63n(linJitter),
		}
		o.Req = spec.Request{ID: int64(k + 1), Proc: o.Proc}
		if k%2 == 0 {
			o.Module, o.Req.Op, o.Resp = "fai", spec.OpInc, faiNext
			faiNext++
		} else {
			o.Module, o.Req.Op, o.Resp = "tas", spec.OpTAS, spec.Loser
			if !tasSet {
				o.Resp, tasSet = spec.Winner, true
			}
		}
		ops = append(ops, o)
	}
	return ops
}

type linWorkload struct {
	size    linSize
	history []trace.Op
	buildS  float64
}

func newLin(toy bool) workload {
	w := &linWorkload{size: linFull}
	if toy {
		w.size = linToy
	}
	return w
}

func (w *linWorkload) setup(e *runEnv) {
	t := time.Now()
	w.history = synthHistory(e.seed, w.size.ops)
	w.buildS = time.Since(t).Seconds()

	// Gates, on a prefix so set-up stays a fixed amount of work wherever
	// the mutation lands: the prefix must be accepted, and a copy with one
	// seeded response mutation (a ticket handed out twice) rejected.
	prefix := w.history[:w.size.prefix]
	res, _, err := linearize.CheckObjects(linObjects, prefix, linearize.JITConfig{})
	e.gate("lin-prefix-accepted", err == nil && res.Ok, "prefix of %d ops: ok=%v (%s), err %v", len(prefix), res.Ok, res.Reason, err)

	mutated := append([]trace.Op(nil), prefix...)
	at := 2 * rand.New(rand.NewSource(e.seed^0x6d75746174)).Intn(len(mutated)/2)
	mutated[at].Resp++
	res, _, err = linearize.CheckObjects(linObjects, mutated, linearize.JITConfig{})
	e.gate("lin-mutation-rejected", err == nil && !res.Ok, "ticket of op %d duplicated: ok=%v, err %v", at, res.Ok, err)

	// Warm-up: one full-size check. A call allocates several times the
	// history's size, and the first call of a process pays the page faults
	// for all of it (about 3 s against 1.3 s warm).
	w.check(e)
}

// verdict applies the gates of one full-history check.
func (w *linWorkload) verdict(e *runEnv, ok bool, reason string, st linearize.Stats, err error) {
	bad := int64(0)
	if err != nil || !ok {
		bad = 1
	}
	e.ops(st.Ops, bad, "lin-wide: history not accepted: "+reason)
	e.gate("lin-accepted", err == nil && ok, "ok=%v (%s), err %v", ok, reason, err)
	e.gate("lin-ops-complete", st.Ops == int64(len(w.history)), "checker saw %d of %d ops", st.Ops, len(w.history))
}

func (w *linWorkload) check(e *runEnv) (linearize.Stats, time.Duration) {
	t := time.Now()
	res, st, err := linearize.CheckObjects(linObjects, w.history, linearize.JITConfig{})
	wall := time.Since(t)
	w.verdict(e, res.Ok, res.Reason, st, err)
	return st, wall
}

func (w *linWorkload) unit(e *runEnv) unitOut {
	st, wall := w.check(e)
	e.count("ops", st.Ops)
	e.count("windows", st.Windows)
	e.count("peak_window", int64(st.PeakWindow))
	e.count("peak_configs", int64(st.PeakConfigs))
	return unitOut{wall: wall, ops: st.Ops}
}

// pushChunk is how many Push calls share one span: a Push costs a few
// hundred nanoseconds, so timing each would cost as much as the call.
const pushChunk = 4096

func (w *linWorkload) trace(e *runEnv, out *metricSet) *ledger {
	var l *ledger
	var st linearize.Stats
	plainS, tracedS := alternate(tracePairs,
		func() time.Duration {
			var wall time.Duration
			st, wall = w.check(e)
			return wall
		},
		func() time.Duration {
			l = newLedger("linearize.CheckObjects")
			return w.streamed(e, l, st)
		})
	plain := median(plainS)

	out.set("linearize.ops", float64(st.Ops), 1)
	out.set("linearize.windows", float64(st.Windows), 1)
	out.set("linearize.peak_window", float64(st.PeakWindow), 1)
	out.set("linearize.peak_configs", float64(st.PeakConfigs), 1)
	out.set("linearize.peak_states", float64(st.PeakStates), 1)
	out.set("linearize.ns_per_op", ratio(plain*1e9, float64(st.Ops)), st.Ops)
	out.set("linearize.busy_share", 1, 1) // the whole unit is the checker
	out.set("scenario.build_s", w.buildS, 1)
	out.set("trace.overhead_ratio", ratio(median(tracedS), plain), tracePairs)
	return l
}

// streamed is CheckObjects rebuilt from the layer's public streaming API,
// one span per call (Push in chunks): partition by module, sort by
// invocation, then NewStream / Push... / Finish per object in module
// order. Its verdict and telemetry must match want, CheckObjects' own.
func (w *linWorkload) streamed(e *runEnv, l *ledger, want linearize.Stats) time.Duration {
	start := l.now()
	t := l.now()
	byMod := map[string][]trace.Op{}
	for _, o := range w.history {
		byMod[o.Module] = append(byMod[o.Module], o)
	}
	mods := make([]string, 0, len(byMod))
	for m, ops := range byMod {
		mods = append(mods, m)
		sort.Slice(ops, func(i, j int) bool { return ops[i].Inv < ops[j].Inv })
	}
	sort.Strings(mods)
	l.add(spLinSort, 0, t, l.now(), 1)

	ok, reason := true, ""
	var folded linearize.Stats
	var firstErr error
	for _, m := range mods {
		t = l.now()
		s := linearize.NewStream(linObjects[m], linearize.JITConfig{})
		l.add(spLinNewStream, 0, t, l.now(), 1)
		ops := byMod[m]
		for lo := 0; lo < len(ops) && firstErr == nil; lo += pushChunk {
			hi := min(lo+pushChunk, len(ops))
			t = l.now()
			for _, o := range ops[lo:hi] {
				if err := s.Push(o); err != nil {
					firstErr = err
					break
				}
			}
			l.add(spLinPush, 0, t, l.now(), int64(hi-lo))
			l.run.Add(1)
		}
		t = l.now()
		r, err := s.Finish()
		l.add(spLinFinish, 0, t, l.now(), 1)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if !r.Ok && ok {
			ok, reason = false, r.Reason
		}
		folded.Fold(s.Stats())
	}
	end := l.now()
	l.add(spRun, 0, start, end, 1)
	w.verdict(e, ok, reason, folded, firstErr)
	e.gate("lin-replica-agrees", folded.Windows == want.Windows && folded.PeakWindow == want.PeakWindow && folded.PeakConfigs == want.PeakConfigs,
		"streamed replica: %d windows, peak %d/%d; CheckObjects: %d, %d/%d",
		folded.Windows, folded.PeakWindow, folded.PeakConfigs, want.Windows, want.PeakWindow, want.PeakConfigs)
	return time.Duration(end - start)
}
