package linearize

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/spec"
	"repro/internal/trace"
)

// sequentialFold is the reference CheckObjects is held to: sort the
// modules, CheckJIT each projection on its own copy, fold the stats, stop
// at the first failure or error. It is the loop CheckObjects ran before
// objects were checked concurrently and through indices.
func sequentialFold(objects map[string]spec.Type, ops []trace.Op, cfg JITConfig) (Result, Stats, error) {
	mods := make([]string, 0, len(objects))
	for m := range objects {
		mods = append(mods, m)
	}
	sort.Strings(mods)
	byMod := map[string][]trace.Op{}
	for _, o := range ops {
		if _, ok := objects[o.Module]; !ok {
			return Result{}, Stats{}, fmt.Errorf("linearize: operation %v labeled with unknown module %q", o.Req, o.Module)
		}
		byMod[o.Module] = append(byMod[o.Module], o)
	}
	var stats Stats
	for _, m := range mods {
		r, st, err := CheckJIT(objects[m], byMod[m], cfg)
		stats.Fold(st)
		if err != nil {
			return Result{}, stats, fmt.Errorf("object %q: %w", m, err)
		}
		if !r.Ok {
			r.Reason = fmt.Sprintf("object %q (%s): %s", m, objects[m].Name(), r.Reason)
			r.Witness = nil
			return r, stats, nil
		}
	}
	return Result{Ok: true}, stats, nil
}

// sameAsSequentialFold checks one history at GOMAXPROCS 1 and 4: Result,
// every Stats field and the error text must equal the reference's, and the
// caller's slice must come back untouched (callers reuse one history
// across calls).
func sameAsSequentialFold(t *testing.T, name string, objects map[string]spec.Type, ops []trace.Op) (ok bool) {
	t.Helper()
	before := slices.Clone(ops)
	want, wantSt, wantErr := sequentialFold(objects, ops, JITConfig{})
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got, gotSt, gotErr := CheckObjects(objects, ops, JITConfig{})
		runtime.GOMAXPROCS(prev)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s, GOMAXPROCS %d: error %v, sequential fold %v", name, procs, gotErr, wantErr)
		}
		if got.Ok != want.Ok || got.Reason != want.Reason || got.Witness != nil {
			t.Fatalf("%s, GOMAXPROCS %d: result %+v, sequential fold %+v", name, procs, got, want)
		}
		if gotSt != wantSt {
			t.Fatalf("%s, GOMAXPROCS %d: stats %+v, sequential fold %+v", name, procs, gotSt, wantSt)
		}
		if !slices.Equal(ops, before) {
			t.Fatalf("%s, GOMAXPROCS %d: CheckObjects changed the caller's history", name, procs)
		}
	}
	return wantErr == nil && want.Ok
}

// objectNames returns n module names whose sorted order is their index.
func objectNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("o%d", i)
	}
	return names
}

// composedHistory builds a history of perObject operations on each of the
// named objects — fetch-and-increment counters at even positions, one-shot
// test-and-sets at odd ones — linearizable by construction: stamps are
// jittered around a per-object commit order, as in millionOpHistory, with
// a forced quiescent cut every 96 commits. Operations of all objects are
// interleaved, so no projection is in invocation order as given.
func composedHistory(rng *rand.Rand, names []string, perObject int) (map[string]spec.Type, []trace.Op) {
	objects := map[string]spec.Type{}
	next := make([]int64, len(names)) // counter value, or 1 once the TAS is won
	for j, m := range names {
		objects[m] = spec.FetchIncType{}
		if j%2 == 1 {
			objects[m] = spec.TASType{}
		}
	}
	ops := make([]trace.Op, 0, perObject*len(names))
	base := int64(0)
	for k := 0; k < perObject; k++ {
		if k%96 == 0 {
			base += 64
		}
		for j, m := range names {
			commit := base + int64(2*k)
			o := trace.Op{Module: m, Inv: commit - rng.Int63n(7), Ret: commit + rng.Int63n(7)}
			o.Req = spec.Request{ID: int64(len(ops) + 1), Op: spec.OpInc}
			o.Resp = next[j]
			if j%2 == 1 {
				o.Req.Op = spec.OpTAS
				o.Resp = spec.Loser
				if next[j] == 0 {
					o.Resp = spec.Winner
				}
				next[j] = 0
			}
			next[j]++
			ops = append(ops, o)
		}
	}
	return objects, ops
}

// firstOf returns the position of the n-th operation (from 0) of module m.
func firstOf(ops []trace.Op, m string, n int) int {
	for i := range ops {
		if ops[i].Module == m {
			if n == 0 {
				return i
			}
			n--
		}
	}
	panic("no such operation")
}

// TestCheckObjectsMatchesSequentialFold is the determinism contract of the
// concurrent CheckObjects: whichever object finishes first, it returns what
// the sequential per-module fold returns. Histories span both sides of the
// parallelMinOps threshold, 1, 2 and 5 objects (more objects than
// processors), linearizable and not, pending operations, an unknown module,
// two failing objects, and a failing object on either side of an erroring
// one. Rounds with aborted operations then go through a Checker's two
// sides (sameRoundsBothSides).
func TestCheckObjectsMatchesSequentialFold(t *testing.T) {
	// Small random histories of every registered type: below the threshold.
	gens := jitGens()
	types := spec.Types()
	rng := rand.New(rand.NewSource(20231))
	okCount, badCount := 0, 0
	for iter := 0; iter < 600; iter++ {
		names := objectNames([]int{1, 2, 5}[iter%3])
		objects := map[string]spec.Type{}
		var ops []trace.Op
		for _, m := range names {
			ty := types[rng.Intn(len(types))]
			objects[m] = ty
			for _, o := range randomJITOps(rng, gens[ty.Name()]) {
				o.Module = m
				o.Req.ID += int64(100 * len(ops))
				ops = append(ops, o)
			}
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		if sameAsSequentialFold(t, fmt.Sprintf("random history %d", iter), objects, ops) {
			okCount++
		} else {
			badCount++
		}
	}
	if okCount == 0 || badCount == 0 {
		t.Fatalf("degenerate sampling: ok=%d bad=%d", okCount, badCount)
	}

	// Constructed histories above the threshold: the concurrent path.
	for _, nObj := range []int{1, 2, 5} {
		names := objectNames(nObj)
		perObject := parallelMinOps/nObj + 100
		fresh := func() (map[string]spec.Type, []trace.Op) {
			return composedHistory(rand.New(rand.NewSource(int64(nObj))), names, perObject)
		}
		fail := func(ops []trace.Op, obj, n int) { // a counter ticket handed out twice, or a second winner
			if obj < nObj {
				at := firstOf(ops, names[obj], n)
				if ops[at].Req.Op == spec.OpInc {
					ops[at].Resp++
				} else {
					ops[at].Resp = spec.Winner
				}
			}
		}
		abort := func(ops []trace.Op, obj, n int) { // a contract error: an unprojected abort
			if obj < nObj {
				ops[firstOf(ops, names[obj], n)].Aborted = true
			}
		}
		cases := []struct {
			name   string
			mutate func(ops []trace.Op) []trace.Op
			wantOk bool
		}{
			{"linearizable", func(ops []trace.Op) []trace.Op { return ops }, true},
			{"in invocation order", func(ops []trace.Op) []trace.Op {
				sort.SliceStable(ops, func(i, j int) bool { return ops[i].Inv < ops[j].Inv })
				return ops
			}, true},
			{"pending operations", func(ops []trace.Op) []trace.Op {
				// Three operations that change nothing whether they take
				// effect or not — a counter read, a test-and-set after the
				// win — each doubling the frontier from where it is invoked.
				for i, n := 50, len(ops); i < n; i += n / 3 {
					p := trace.Op{Module: ops[i].Module, Inv: ops[i].Inv, Pending: true}
					p.Req = spec.Request{ID: ops[i].Req.ID + 1<<40, Op: spec.OpRead}
					if ops[i].Req.Op == spec.OpTAS {
						p.Req.Op = spec.OpTAS
					}
					ops = append(ops, p)
				}
				return ops
			}, true},
			{"last object fails", func(ops []trace.Op) []trace.Op { fail(ops, nObj-1, perObject/2); return ops }, false},
			{"two objects fail", func(ops []trace.Op) []trace.Op {
				fail(ops, 1, perObject-10)
				fail(ops, 3, 40)
				return ops
			}, nObj < 2},
			{"failure before an error", func(ops []trace.Op) []trace.Op {
				fail(ops, 0, perObject/3)
				abort(ops, 3, 10)
				return ops
			}, false},
			{"error before a failure", func(ops []trace.Op) []trace.Op {
				abort(ops, 1, perObject/2)
				fail(ops, 4, 5)
				return ops
			}, nObj < 2},
			{"unknown module", func(ops []trace.Op) []trace.Op { ops[len(ops)/2].Module = "mystery"; return ops }, false},
		}
		for _, c := range cases {
			objects, ops := fresh()
			ops = c.mutate(ops)
			name := fmt.Sprintf("%d objects, %s", nObj, c.name)
			if ok := sameAsSequentialFold(t, name, objects, ops); ok != c.wantOk {
				t.Fatalf("%s: accepted = %v, want %v", name, ok, c.wantOk)
			}
		}
	}

	sameRoundsBothSides(t)
}

// sameRoundsBothSides feeds rounds of a three-object history, a sixth of
// their operations aborted and one round planted with two test-and-set
// winners, through a Checker two ways: the streaming side, Push per
// operation and a Barrier per round on one Checker for the whole run, and
// the batch side, Check per round. Per round both must reach the verdict
// of the sequential fold over the round's projection (aborted operations
// made pending by hand), with the same failure text naming the same first
// failing object, and project the round in place; the batch side's Stats
// must equal the fold's, and the streaming side must have counted every
// operation fed, across the restarts that follow failed rounds.
func sameRoundsBothSides(t *testing.T) {
	gens := jitGens()
	objects := map[string]spec.Type{"o0": spec.TASType{}, "o1": spec.FetchIncType{}, "o2": spec.QueueType{}}
	names := objectNames(3)
	stream := NewChecker(nil, objects, JITConfig{})
	batch := NewChecker(nil, objects, JITConfig{})
	rng := rand.New(rand.NewSource(5501))
	const planted = 7
	fed, aborted, failedRounds := 0, 0, 0
	for r := 0; r < 400; r++ {
		var round []trace.Op
		if r == planted {
			round = []trace.Op{op(1, spec.OpTAS, 0, spec.Winner, 1, 2), op(2, spec.OpTAS, 0, spec.Winner, 3, 4), op(3, spec.OpInc, 0, 0, 1, 4)}
			round[0].Module, round[1].Module, round[2].Module = "o0", "o0", "o1"
			round[2].Aborted = true
		}
		for j := 0; j < len(names) && r != planted; j++ {
			for _, o := range randomJITOps(rng, gens[objects[names[j]].Name()]) {
				o.Module = names[j]
				o.Req.ID += int64(100 * j)
				o.Aborted = !o.Pending && rng.Intn(6) == 0
				round = append(round, o)
			}
		}
		slices.SortStableFunc(round, func(a, b trace.Op) int { return cmp.Compare(a.Inv, b.Inv) })
		projected := slices.Clone(round)
		for i := range projected {
			if o := &projected[i]; o.Aborted {
				o.Aborted, o.Pending, o.Ret = false, true, 0
				aborted++
			}
		}
		want, wantSt, wantErr := sequentialFold(objects, slices.Clone(projected), JITConfig{})
		if wantErr != nil {
			t.Fatalf("round %d: sequential fold: %v", r, wantErr)
		}
		wantText := ""
		if !want.Ok {
			wantText = "not linearizable (composed): " + want.Reason
			failedRounds++
		}

		pushed := slices.Clone(round)
		for i := range pushed {
			if err := stream.Push(&pushed[i]); err != nil {
				t.Fatalf("round %d: Push: %v", r, err)
			}
		}
		fed += len(pushed)
		failed, first, err := stream.Barrier()
		if err != nil || (failed > 0) != !want.Ok || first != wantText {
			t.Fatalf("round %d: streaming side: %d failed, first %q, err %v; sequential fold: ok=%v %q",
				r, failed, first, err, want.Ok, wantText)
		}

		checked := slices.Clone(round)
		got, gotSt, err := batch.Check(checked)
		if err != nil || got.Ok != want.Ok || !want.Ok && got.Reason != wantText || gotSt != wantSt {
			t.Fatalf("round %d: batch side: ok=%v %q stats %+v, err %v; sequential fold: ok=%v %q stats %+v",
				r, got.Ok, got.Reason, gotSt, err, want.Ok, wantText, wantSt)
		}
		if got.Ok && gotSt.Ops != int64(len(round)) {
			t.Fatalf("round %d: batch side checked %d of %d ops", r, gotSt.Ops, len(round))
		}
		if !slices.Equal(pushed, projected) || !slices.Equal(checked, projected) {
			t.Fatalf("round %d: a side did not project the round in place", r)
		}
	}
	if st := stream.Stats(); st.Ops != int64(fed) {
		t.Fatalf("streaming side counted %d ops, %d fed", st.Ops, fed)
	}
	if aborted == 0 || failedRounds < 2 || failedRounds > 390 {
		t.Fatalf("degenerate rounds: %d aborted ops, %d of 400 rounds failed", aborted, failedRounds)
	}
}

// tasfaiHistory is what the exhaustive tier hands CheckObjects once per
// explored execution of the tasfai scenario at n=4: every process races
// the one-shot test-and-set, then takes two tickets.
func tasfaiHistory() (map[string]spec.Type, []trace.Op) {
	var ops []trace.Op
	for p := int64(0); p < 4; p++ {
		o := op(3*p+1, spec.OpTAS, 0, spec.Loser, p, 10+p)
		if p == 0 {
			o.Resp = spec.Winner
		}
		o.Module = "tas"
		ops = append(ops, o)
	}
	for k := int64(0); k < 8; k++ {
		o := op(3*(k%4)+2+k/4, spec.OpInc, 0, k, 20+2*k, 21+2*k)
		o.Module = "fai"
		ops = append(ops, o)
	}
	return map[string]spec.Type{"tas": spec.TASType{}, "fai": spec.FetchIncType{}}, ops
}

// TestCheckObjectsSmallHistoryStaysInline guards the per-execution oracle
// call against the machinery that serves million-op histories: below
// parallelMinOps the check runs on the caller's goroutine, and allocates
// less than the 158 objects the sequential, copying CheckObjects did.
func TestCheckObjectsSmallHistoryStaysInline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	objects, ops := tasfaiHistory()
	if len(ops) >= parallelMinOps {
		t.Fatalf("test history of %d ops is not below the %d-op threshold", len(ops), parallelMinOps)
	}
	check := func() {
		res, st, err := CheckObjects(objects, ops, JITConfig{})
		if err != nil || !res.Ok || st.Ops != int64(len(ops)) {
			t.Fatalf("ok=%v (%s), %d ops, err %v", res.Ok, res.Reason, st.Ops, err)
		}
	}
	before := runtime.NumGoroutine()
	check()
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines before a small CheckObjects call, %d after", before, after)
	}
	const maxAllocs = 66 // 53 reached, plus a quarter
	if got := testing.AllocsPerRun(200, check); got > maxAllocs {
		t.Errorf("%.0f allocations per small CheckObjects call, budget %d", got, maxAllocs)
	}
}
