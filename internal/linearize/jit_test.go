package linearize

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/spec"
	"repro/internal/trace"
)

// --- unit tests: stream contract -------------------------------------------

func TestStreamRejectsOutOfOrderPush(t *testing.T) {
	s := NewStream(spec.TASType{}, JITConfig{})
	if err := s.Push(op(1, spec.OpTAS, 0, spec.Winner, 5, 6)); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(op(2, spec.OpTAS, 0, spec.Loser, 3, 7)); err == nil {
		t.Fatal("out-of-order push accepted")
	}
}

func TestStreamRejectsAbortedOp(t *testing.T) {
	s := NewStream(spec.TASType{}, JITConfig{})
	aborted := op(1, spec.OpTAS, 0, 0, 1, 2)
	aborted.Aborted = true
	if err := s.Push(aborted); err == nil {
		t.Fatal("aborted op accepted")
	}
}

func TestStreamRejectsReturnBeforeInvocation(t *testing.T) {
	// A completed operation whose response stamp precedes its invocation
	// is a recorder bug; the event list cannot order its two entries.
	s := NewStream(spec.TASType{}, JITConfig{})
	if err := s.Push(op(1, spec.OpTAS, 0, spec.Winner, 5, 4)); err == nil {
		t.Fatal("operation returning before its invocation accepted")
	}
}

func TestStreamPendingBudget(t *testing.T) {
	s := NewStream(spec.TASType{}, JITConfig{MaxPending: 1})
	if err := s.Push(pend(1, spec.OpTAS, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(pend(2, spec.OpTAS, 0, 2)); err == nil {
		t.Fatal("second pending op exceeded MaxPending=1 but was accepted")
	}
}

func TestStreamWindowOverflowIsContractError(t *testing.T) {
	// Six fully-overlapping register writes with distinct arguments: no
	// quiescent cut can form inside a Window=4 budget. That must surface
	// as an error, never as a non-linearizable verdict.
	s := NewStream(spec.RegisterType{}, JITConfig{Window: 4})
	var err error
	for i := int64(1); i <= 6 && err == nil; i++ {
		err = s.Push(op(i, spec.OpWrite, i, 0, i, 100+i))
	}
	if err == nil {
		t.Fatal("window overflow not reported")
	}
	if !strings.Contains(err.Error(), "window") {
		t.Fatalf("unexpected overflow error: %v", err)
	}

	// The same history through a Checker's batch side: the error comes
	// back bare under a single type and names the object under a module
	// map, never as a verdict.
	var ops []trace.Op
	for i := int64(1); i <= 6; i++ {
		ops = append(ops, op(i, spec.OpWrite, i, 0, i, 100+i))
	}
	for _, c := range []struct {
		objects map[string]spec.Type
		prefix  string
	}{{nil, "linearize: no quiescent cut"}, {map[string]spec.Type{"": spec.RegisterType{}}, `object "": linearize: no quiescent cut`}} {
		res, _, err := NewChecker(spec.RegisterType{}, c.objects, JITConfig{Window: 4}).Check(slices.Clone(ops))
		if err == nil || !strings.HasPrefix(err.Error(), c.prefix) || res.Ok {
			t.Fatalf("Checker over %v: ok=%v, error %v; want one starting %q", c.objects, res.Ok, err, c.prefix)
		}
	}
}

func TestStreamConfigBudgetIsContractError(t *testing.T) {
	s := NewStream(spec.RegisterType{}, JITConfig{MaxConfigs: 2})
	for i := int64(1); i <= 5; i++ {
		if err := s.Push(op(i, spec.OpWrite, i, 0, i, 100+i)); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	if _, err := s.Finish(); err == nil {
		t.Fatal("MaxConfigs=2 budget not reported on a concurrent segment")
	}
}

func TestStreamBarrierRestartsInstance(t *testing.T) {
	// Two one-shot TAS instances separated by a barrier: each has its own
	// winner, and stamps restart. Without the barrier two winners would be
	// rejected; with it both instances verify.
	s := NewStream(spec.TASType{}, JITConfig{})
	if err := s.Push(op(1, spec.OpTAS, 0, spec.Winner, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(op(2, spec.OpTAS, 0, spec.Loser, 3, 4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Barrier(); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(op(3, spec.OpTAS, 0, spec.Winner, 1, 2)); err != nil {
		t.Fatalf("stamps must be allowed to restart after a barrier: %v", err)
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok {
		t.Fatalf("barrier-separated winners rejected: %s", res.Reason)
	}
	if st := s.Stats(); st.Ops != 3 {
		t.Fatalf("Ops = %d, want 3", st.Ops)
	}
}

func TestStreamFailedStopsEarly(t *testing.T) {
	// A decided verdict is sticky and visible mid-stream, so online
	// drivers can stop feeding; later pushes drain without error.
	s := NewStream(spec.TASType{}, JITConfig{Window: 8})
	ops := []trace.Op{
		op(1, spec.OpTAS, 0, spec.Winner, 1, 2),
		op(2, spec.OpTAS, 0, spec.Winner, 3, 4),
	}
	for _, o := range ops {
		if err := s.Push(o); err != nil {
			t.Fatal(err)
		}
	}
	// Push far-future quiescent ops until the failing segment is solved.
	for i := int64(0); i < 2048 && s.Failed() == nil; i++ {
		if err := s.Push(op(10+i, spec.OpTAS, 0, spec.Loser, 100+2*i, 101+2*i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Failed() == nil {
		t.Fatal("two winners never surfaced via Failed()")
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ok {
		t.Fatal("Finish contradicted Failed")
	}
}

func TestCheckObjectsUnknownModule(t *testing.T) {
	o := op(1, spec.OpTAS, 0, spec.Winner, 1, 2)
	o.Module = "mystery"
	_, _, err := CheckObjects(map[string]spec.Type{"tas": spec.TASType{}}, []trace.Op{o}, JITConfig{})
	if err == nil || !strings.Contains(err.Error(), "mystery") {
		t.Fatalf("unknown module not reported: %v", err)
	}
	if !errors.Is(err, ErrUnknownModule) {
		t.Fatalf("%v is not ErrUnknownModule", err)
	}
}

func TestCheckObjectsNamesFailingObject(t *testing.T) {
	mk := func(id int64, mod, opName string, resp, inv, ret int64) trace.Op {
		o := op(id, opName, 0, resp, inv, ret)
		o.Module = mod
		return o
	}
	ops := []trace.Op{
		mk(1, "tas", spec.OpTAS, spec.Winner, 1, 2),
		mk(2, "fai", spec.OpInc, 0, 3, 4),
		mk(3, "fai", spec.OpInc, 5, 5, 6), // wrong: should be 1
	}
	res, _, err := CheckObjects(map[string]spec.Type{
		"tas": spec.TASType{}, "fai": spec.FetchIncType{},
	}, ops, JITConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ok {
		t.Fatal("bad fai response accepted")
	}
	if !strings.Contains(res.Reason, `object "fai"`) {
		t.Fatalf("failure not attributed to the fai object: %s", res.Reason)
	}
}

// --- stutter rule ----------------------------------------------------------

// TestJITStutterRuleScales pits the checker against its worst pre-stutter
// case: one winner and 63 losers, all pairwise concurrent. Without the
// greedy rule the losers explode into 2^63 masked configurations; with it
// the segment solves in linear work.
func TestJITStutterRuleScales(t *testing.T) {
	var ops []trace.Op
	for i := int64(0); i < 64; i++ {
		resp := spec.Loser
		if i == 0 {
			resp = spec.Winner
		}
		ops = append(ops, op(i+1, spec.OpTAS, 0, resp, 1+i%3, 1000+i))
	}
	res, st, err := CheckJIT(spec.TASType{}, ops, JITConfig{MaxConfigs: 1 << 12})
	if err != nil {
		t.Fatalf("stutter rule failed to collapse the loser window: %v", err)
	}
	if !res.Ok {
		t.Fatalf("concurrent winner+losers rejected: %s", res.Reason)
	}
	if st.PeakConfigs > 1<<10 {
		t.Fatalf("PeakConfigs = %d, want linear-ish (stutter rule not firing?)", st.PeakConfigs)
	}
	if len(res.Witness) != 64 || res.Witness[0].ID != 1 {
		t.Fatalf("witness should lead with the winner: %v", res.Witness[:min(4, len(res.Witness))])
	}

	// The rejecting side, where an accepting search's early exit cannot hide
	// the search-space size: two winners and c−2 losers, all pairwise
	// concurrent. A subset-enumerating search visits 2^c configurations to
	// prove the second winner never fits (memoSearch needs 0.8 s at c=20, so
	// the closed form is the second opinion here); the stutter rule chains
	// the losers greedily, so the memo stays linear in c.
	ops[1].Resp = spec.Winner
	for _, c := range []int{8, 12, 16, 20} {
		ops := ops[:c]
		res, st, err := CheckJIT(spec.TASType{}, ops, JITConfig{MaxConfigs: 1 << 12})
		if err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		if res.Ok || mustCheckTAS(t, ops).Ok {
			t.Fatalf("c=%d: two concurrent winners accepted", c)
		}
		if st.PeakConfigs > 2*c {
			t.Fatalf("c=%d: PeakConfigs = %d, want at most 2c (stutter rule not firing?)", c, st.PeakConfigs)
		}
	}
}

// TestJITStutterRuleGatedOnReset is the regression test for the rule's
// soundness condition. A reset responds 0 both where it stutters (unset)
// and where it clears (set); taking it greedily at the unset state loses
// the linearization that defers it past a winner. TASType therefore must
// NOT declare reset stutter-safe, and this history must verify.
func TestJITStutterRuleGatedOnReset(t *testing.T) {
	ops := []trace.Op{
		op(1, spec.OpReset, 0, 0, 1, 10),         // concurrent with both wins
		op(2, spec.OpTAS, 0, spec.Winner, 2, 3),  // first win
		op(3, spec.OpTAS, 0, spec.Winner, 4, 10), // second win — needs reset between
	}
	res, _, err := CheckJIT(spec.TASType{}, ops, JITConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok {
		t.Fatalf("win-reset-win rejected (stutter rule over-applied to reset): %s", res.Reason)
	}
}

// TestJITStutterRuleGatedOnWrite: a write's 0 response matches in every
// state but only stutters where the stored value already equals the
// argument. Greedily linearizing write(0) at the initial state loses the
// order write(1)·write(0)·read=0.
func TestJITStutterRuleGatedOnWrite(t *testing.T) {
	ops := []trace.Op{
		op(1, spec.OpWrite, 0, 0, 1, 10),
		op(2, spec.OpWrite, 1, 0, 2, 3),
		op(3, spec.OpRead, 0, 0, 4, 10),
	}
	res, _, err := CheckJIT(spec.RegisterType{}, ops, JITConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok {
		t.Fatalf("write(1)·write(0)·read=0 rejected (stutter rule over-applied to write): %s", res.Reason)
	}
}

// --- cross-validation against the two test-side references -----------------

// jitGens builds a random-op generator per registered type, deliberately
// including the operations whose responses match in states they change
// (reset, write, propose) so a dishonest StutterSafe declaration is caught.
func jitGens() map[string]func(i int, rng *rand.Rand) (string, int64, int64) {
	return map[string]func(i int, rng *rand.Rand) (string, int64, int64){
		"test-and-set": func(i int, rng *rand.Rand) (string, int64, int64) {
			if rng.Intn(4) == 0 {
				return spec.OpReset, 0, 0
			}
			return spec.OpTAS, 0, int64(rng.Intn(2))
		},
		"consensus": func(i int, rng *rand.Rand) (string, int64, int64) {
			return spec.OpPropose, int64(rng.Intn(3)), int64(rng.Intn(3))
		},
		"fifo-queue": func(i int, rng *rand.Rand) (string, int64, int64) {
			if rng.Intn(2) == 0 {
				return spec.OpEnq, int64(10 + i), 0
			}
			resps := []int64{spec.EmptyQueue, 10, 11, 12, 13}
			return spec.OpDeq, 0, resps[rng.Intn(len(resps))]
		},
		"lifo-stack": func(i int, rng *rand.Rand) (string, int64, int64) {
			if rng.Intn(2) == 0 {
				return spec.OpPush, int64(10 + i), 0
			}
			resps := []int64{spec.EmptyStack, 10, 11, 12, 13}
			return spec.OpPop, 0, resps[rng.Intn(len(resps))]
		},
		"fetch-and-increment": func(i int, rng *rand.Rand) (string, int64, int64) {
			if rng.Intn(3) == 0 {
				return spec.OpRead, 0, int64(rng.Intn(4))
			}
			return spec.OpInc, 0, int64(rng.Intn(4))
		},
		"register": func(i int, rng *rand.Rand) (string, int64, int64) {
			if rng.Intn(2) == 0 {
				return spec.OpWrite, int64(rng.Intn(3)), 0
			}
			return spec.OpRead, 0, int64(rng.Intn(3))
		},
		"max-register": func(i int, rng *rand.Rand) (string, int64, int64) {
			if rng.Intn(2) == 0 {
				return spec.OpWriteMax, int64(rng.Intn(4)), 0
			}
			return spec.OpReadMax, 0, int64(rng.Intn(4))
		},
	}
}

// randomJITOps generates a small overlap-heavy execution: stamps collide
// (calls tie with returns) and a fifth of the ops are pending.
func randomJITOps(rng *rand.Rand, mkOp func(i int, rng *rand.Rand) (string, int64, int64)) []trace.Op {
	k := 1 + rng.Intn(6)
	ops := make([]trace.Op, 0, k)
	for i := 0; i < k; i++ {
		opName, arg, resp := mkOp(i, rng)
		inv := 1 + rng.Int63n(10)
		o := trace.Op{Req: spec.Request{ID: int64(i + 1), Op: opName, Arg: arg}, Inv: inv}
		if rng.Intn(5) == 0 {
			o.Pending = true
		} else {
			o.Ret = inv + rng.Int63n(6)
			o.Resp = resp
		}
		ops = append(ops, o)
	}
	return ops
}

// replayable asserts a witness is a valid linearization of ops: it must
// contain every completed op exactly once (plus any subset of pending
// ops), respect real-time order, and reproduce every committed response.
func replayable(t *testing.T, ty spec.Type, w spec.History, ops []trace.Op) {
	t.Helper()
	var chosen []trace.Op
	for _, o := range ops {
		if !o.Pending {
			if !w.Contains(o.Req.ID) {
				t.Fatalf("witness omits completed op %v: %v", o.Req, w)
			}
			chosen = append(chosen, o)
		} else if w.Contains(o.Req.ID) {
			chosen = append(chosen, o)
		}
	}
	if len(w) != len(chosen) || w.HasDuplicates() {
		t.Fatalf("witness %v is not a permutation of the chosen ops", w)
	}
	if !validLinearization(ty, w, chosen) {
		t.Fatalf("witness %v does not replay over %+v", w, ops)
	}
}

// TestCrossValidateJITAllTypes compares the JIT checker against both
// references (bruteForce here, memoSearch in mustCheck) on randomized
// histories of every registered type, and replays every accepting witness
// through the spec. The registry iteration means a newly registered type
// without a generator here fails loudly instead of going untested.
func TestCrossValidateJITAllTypes(t *testing.T) {
	gens := jitGens()
	for _, ty := range spec.Types() {
		gen, ok := gens[ty.Name()]
		if !ok {
			t.Fatalf("no random-op generator for registered type %q — extend jitGens", ty.Name())
		}
		ty := ty
		t.Run(ty.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(ty.Name())) * 7919))
			okCount, badCount := 0, 0
			for iter := 0; iter < 1200; iter++ {
				ops := randomJITOps(rng, gen)
				want := bruteForce(ty, ops)
				res := mustCheck(t, ty, ops)
				if res.Ok != want {
					t.Fatalf("JIT disagreement on %+v: CheckJIT=%v brute=%v", ops, res.Ok, want)
				}
				if res.Ok {
					replayable(t, ty, res.Witness, ops)
					okCount++
				} else {
					badCount++
				}
			}
			if okCount == 0 || badCount == 0 {
				t.Fatalf("degenerate sampling: ok=%d bad=%d", okCount, badCount)
			}
		})
	}
}

// TestCrossValidateJITAgainstCheckTAS adds the specialized O(k log k) TAS
// decision procedure as a third oracle on one-shot TAS histories.
func TestCrossValidateJITAgainstCheckTAS(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for iter := 0; iter < 1500; iter++ {
		ops := randomJITOps(rng, func(i int, rng *rand.Rand) (string, int64, int64) {
			return spec.OpTAS, 0, int64(rng.Intn(2))
		})
		fast := mustCheckTAS(t, ops)
		res, _, err := CheckJIT(spec.TASType{}, ops, JITConfig{})
		if err != nil {
			t.Fatalf("CheckJIT error on %+v: %v", ops, err)
		}
		if res.Ok != fast.Ok {
			t.Fatalf("disagreement on %+v: CheckJIT=%v CheckTAS=%v", ops, res.Ok, fast.Ok)
		}
		if res.Ok {
			replayable(t, spec.TASType{}, res.Witness, ops)
		}
	}
}

// --- the million-op acceptance run -----------------------------------------

// millionOpHistory synthesizes a composed TAS + fetch-and-increment
// history whose stamps are jittered around a known commit order: request k
// commits at stamp base+2k with Inv = commit − r₁ and Ret = commit + r₂
// (r ∈ [0,6]). If Ret(a) < Inv(b) then commit(a) < commit(b), so commit
// order is a real-time-consistent linearization and the history is
// linearizable by construction. Every `chunk` commits the base jumps far
// past all prior returns, forcing a quiescent cut so the window stays
// bounded; the counter's half drives state growth past the interner
// compaction threshold.
func millionOpHistory(total, procs, chunk int) []trace.Op {
	rng := rand.New(rand.NewSource(5))
	ops := make([]trace.Op, 0, total)
	base := int64(0)
	faiNext := int64(0)
	tasSet := false
	for k := 0; k < total; k++ {
		if k%chunk == 0 {
			base += 64
		}
		commit := base + int64(2*k)
		o := trace.Op{
			Proc: k % procs,
			Inv:  commit - rng.Int63n(7),
			Ret:  commit + rng.Int63n(7),
		}
		o.Req = spec.Request{ID: int64(k + 1), Proc: o.Proc}
		if k%2 == 0 {
			o.Module = "fai"
			o.Req.Op = spec.OpInc
			o.Resp = faiNext
			faiNext++
		} else {
			o.Module = "tas"
			o.Req.Op = spec.OpTAS
			if tasSet {
				o.Resp = spec.Loser
			} else {
				o.Resp = spec.Winner
				tasSet = true
			}
		}
		ops = append(ops, o)
	}
	return ops
}

// TestJITMillionOpComposed is the headline acceptance run: a
// 1,048,576-operation composed history over 64 processes verifies
// linearizable under bounded memory, and a single flipped response is
// rejected with a window-localized counterexample.
func TestJITMillionOpComposed(t *testing.T) {
	if testing.Short() {
		t.Skip("million-op acceptance run")
	}
	const (
		total = 1 << 20
		procs = 64
		chunk = 192
	)
	objects := map[string]spec.Type{"tas": spec.TASType{}, "fai": spec.FetchIncType{}}
	ops := millionOpHistory(total, procs, chunk)

	res, st, err := CheckObjects(objects, ops, JITConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok {
		t.Fatalf("synthetic linearizable history rejected: %s", res.Reason)
	}
	if st.Ops != total {
		t.Fatalf("Ops = %d, want %d", st.Ops, total)
	}
	if st.Windows < 1000 {
		t.Fatalf("Windows = %d: cut forcing is not segmenting the stream", st.Windows)
	}
	if st.PeakWindow > 4*segTarget {
		t.Fatalf("PeakWindow = %d: memory is not bounded by the window", st.PeakWindow)
	}
	if st.PeakStates < compactAbove {
		t.Fatalf("PeakStates = %d: the counter never exercised interner compaction", st.PeakStates)
	}
	if st.PeakStates > 8*compactAbove {
		t.Fatalf("PeakStates = %d: compaction is not bounding the intern table", st.PeakStates)
	}
	t.Logf("verified %d ops: windows=%d peakWindow=%d peakConfigs=%d peakStates=%d frontier≤%d",
		st.Ops, st.Windows, st.PeakWindow, st.PeakConfigs, st.PeakStates, st.PeakFrontier)

	// Flip one mid-history counter response: the duplicated value makes
	// the history non-linearizable in any order, and the verdict must
	// localize it to the containing window, not scan to the end.
	mutIdx := (total/2/chunk)*chunk + chunk/2
	if mutIdx%2 != 0 {
		mutIdx++ // fai ops sit at even indices
	}
	mut := append([]trace.Op(nil), ops...)
	mut[mutIdx].Resp++
	res, st2, err := CheckObjects(objects, mut, JITConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ok {
		t.Fatal("mutated history accepted")
	}
	if !strings.Contains(res.Reason, `object "fai"`) || !strings.Contains(res.Reason, "window") {
		t.Fatalf("counterexample not localized: %s", res.Reason)
	}
	if st2.Ops >= total {
		t.Fatalf("mutated run pushed %d ops: failure did not stop the stream early", st2.Ops)
	}
	t.Logf("mutation at op %d rejected after %d ops: %s", mutIdx, st2.Ops, res.Reason)
}

// A Barrier drains everything buffered as one segment when it fits the
// segment target, however many quiescent cuts the round holds: K rounds of
// two real-time-ordered halves are K windows, and a stream that restarts
// after each failing round finds exactly the failures, and the first
// failing round, that a fresh stream per round finds. Failing rounds are
// planted before the cut, after it, and at the rounds where the stress
// tier's 64-round batches meet.
func TestBarrierSolvesRoundAsOneWindow(t *testing.T) {
	const rounds = 256
	failBefore := map[int]bool{0: true, 63: true, 128: true, 200: true}
	failAfter := map[int]bool{64: true, 127: true, 129: true, 255: true}
	round := func(r int) []trace.Op {
		base, id := int64(100*r), int64(10*r)
		var ops []trace.Op
		for i := int64(0); i < 3; i++ { // three overlapping tickets
			resp := i
			if i == 2 && failBefore[r] {
				resp = 0 // a ticket handed out twice
			}
			ops = append(ops, op(id+i, spec.OpInc, 0, resp, base+1+i, base+5+i))
		}
		if r%3 == 0 {
			ops = append(ops, pend(id+3, spec.OpInc, 0, base+4)) // floats past the cut
		}
		// The quiescent cut: every ticket above returned before these start.
		for i := int64(0); i < 3; i++ {
			resp := 3 + i
			if i == 2 && failAfter[r] {
				resp = 7 // a ticket skipped
			}
			ops = append(ops, op(id+4+i, spec.OpInc, 0, resp, base+20+i, base+25+i))
		}
		return ops
	}

	var wantFails []int
	for r := 0; r < rounds; r++ {
		s := NewStream(spec.FetchIncType{}, JITConfig{})
		for _, o := range round(r) {
			if err := s.Push(o); err != nil {
				t.Fatal(err)
			}
		}
		if res, err := s.Finish(); err != nil {
			t.Fatal(err)
		} else if !res.Ok {
			wantFails = append(wantFails, r)
		}
	}
	if len(wantFails) != len(failBefore)+len(failAfter) {
		t.Fatalf("fresh streams fail rounds %v, want the %d planted ones", wantFails, len(failBefore)+len(failAfter))
	}

	var stats Stats
	var fails []int
	s := NewStream(spec.FetchIncType{}, JITConfig{})
	for r := 0; r < rounds; r++ {
		for _, o := range round(r) {
			if err := s.Push(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Barrier(); err != nil {
			t.Fatal(err)
		}
		if f := s.Failed(); f != nil {
			fails = append(fails, r)
			if !strings.Contains(f.Reason, "window of 6 ops") { // the pending ticket is carried, not windowed
				t.Errorf("round %d: failure not localized to the whole round: %s", r, f.Reason)
			}
			stats.Fold(s.Stats())
			s = NewStream(spec.FetchIncType{}, JITConfig{})
		}
	}
	stats.Fold(s.Stats())
	if !slices.Equal(fails, wantFails) {
		t.Errorf("one stream with barriers fails rounds %v, fresh streams %v", fails, wantFails)
	}
	if stats.Windows != rounds {
		t.Errorf("Windows = %d over %d rounds, want one per round", stats.Windows, rounds)
	}
}
