package linearize

import (
	"math/rand"
	"testing"

	"repro/internal/spec"
	"repro/internal/trace"
)

// op builds a completed operation.
func op(id int64, o string, arg, resp, inv, ret int64) trace.Op {
	return trace.Op{Req: spec.Request{ID: id, Op: o, Arg: arg}, Resp: resp, Inv: inv, Ret: ret}
}

// pend builds a pending operation.
func pend(id int64, o string, arg, inv int64) trace.Op {
	return trace.Op{Req: spec.Request{ID: id, Op: o, Arg: arg}, Inv: inv, Pending: true}
}

func TestCheckSequentialTAS(t *testing.T) {
	ops := []trace.Op{
		op(1, spec.OpTAS, 0, spec.Winner, 1, 2),
		op(2, spec.OpTAS, 0, spec.Loser, 3, 4),
	}
	res := mustCheck(t, spec.TASType{}, ops)
	if !res.Ok {
		t.Fatalf("sequential TAS must linearize: %s", res.Reason)
	}
	if len(res.Witness) != 2 || res.Witness[0].ID != 1 {
		t.Fatalf("witness = %v", res.Witness)
	}
}

func TestCheckRejectsTwoWinners(t *testing.T) {
	ops := []trace.Op{
		op(1, spec.OpTAS, 0, spec.Winner, 1, 2),
		op(2, spec.OpTAS, 0, spec.Winner, 3, 4),
	}
	if mustCheck(t, spec.TASType{}, ops).Ok {
		t.Fatal("two winners accepted")
	}
	if mustCheckTAS(t, ops).Ok {
		t.Fatal("CheckTAS accepted two winners")
	}
}

func TestCheckRejectsRealTimeViolation(t *testing.T) {
	// Loser completes strictly before winner is invoked: the win cannot
	// be ordered first.
	ops := []trace.Op{
		op(1, spec.OpTAS, 0, spec.Loser, 1, 2),
		op(2, spec.OpTAS, 0, spec.Winner, 3, 4),
	}
	if mustCheck(t, spec.TASType{}, ops).Ok {
		t.Fatal("generic checker accepted real-time violation")
	}
	if mustCheckTAS(t, ops).Ok {
		t.Fatal("TAS checker accepted real-time violation")
	}
}

func TestCheckOverlappingWinnerLoser(t *testing.T) {
	ops := []trace.Op{
		op(1, spec.OpTAS, 0, spec.Loser, 1, 4),
		op(2, spec.OpTAS, 0, spec.Winner, 2, 3),
	}
	if !mustCheck(t, spec.TASType{}, ops).Ok {
		t.Fatal("overlapping winner/loser should linearize")
	}
	if !mustCheckTAS(t, ops).Ok {
		t.Fatal("CheckTAS rejected overlapping winner/loser")
	}
}

func TestCheckPendingTakesEffect(t *testing.T) {
	// Loser commits with no committed winner; a pending overlapping op
	// explains the set bit.
	ops := []trace.Op{
		pend(1, spec.OpTAS, 0, 1),
		op(2, spec.OpTAS, 0, spec.Loser, 2, 3),
	}
	if !mustCheck(t, spec.TASType{}, ops).Ok {
		t.Fatal("pending winner should explain the loser")
	}
	if !mustCheckTAS(t, ops).Ok {
		t.Fatal("CheckTAS rejected pending winner")
	}
}

func TestCheckPendingCannotExplainIfInvokedLater(t *testing.T) {
	ops := []trace.Op{
		op(1, spec.OpTAS, 0, spec.Loser, 1, 2),
		pend(2, spec.OpTAS, 0, 3),
	}
	if mustCheck(t, spec.TASType{}, ops).Ok {
		t.Fatal("a pending op invoked after the loser returned cannot have won")
	}
	if mustCheckTAS(t, ops).Ok {
		t.Fatal("CheckTAS accepted late pending winner")
	}
}

func TestCheckPendingDropped(t *testing.T) {
	// Pending op that must NOT take effect: committed winner exists.
	ops := []trace.Op{
		op(1, spec.OpTAS, 0, spec.Winner, 1, 2),
		pend(2, spec.OpTAS, 0, 3),
	}
	if !mustCheck(t, spec.TASType{}, ops).Ok {
		t.Fatal("pending op should simply be dropped")
	}
	if !mustCheckTAS(t, ops).Ok {
		t.Fatal("CheckTAS should drop the pending op")
	}
}

func TestCheckQueueFIFO(t *testing.T) {
	ty := spec.QueueType{}
	ok := []trace.Op{
		op(1, spec.OpEnq, 10, 0, 1, 2),
		op(2, spec.OpEnq, 20, 0, 3, 4),
		op(3, spec.OpDeq, 0, 10, 5, 6),
		op(4, spec.OpDeq, 0, 20, 7, 8),
	}
	if !mustCheck(t, ty, ok).Ok {
		t.Fatal("FIFO history should linearize")
	}
	bad := []trace.Op{
		op(1, spec.OpEnq, 10, 0, 1, 2),
		op(2, spec.OpEnq, 20, 0, 3, 4),
		op(3, spec.OpDeq, 0, 20, 5, 6), // wrong order
		op(4, spec.OpDeq, 0, 10, 7, 8),
	}
	if mustCheck(t, ty, bad).Ok {
		t.Fatal("LIFO-order dequeues accepted for sequential enqueues")
	}
	// But if the enqueues overlap, either dequeue order is fine.
	overlapped := []trace.Op{
		op(1, spec.OpEnq, 10, 0, 1, 3),
		op(2, spec.OpEnq, 20, 0, 2, 4),
		op(3, spec.OpDeq, 0, 20, 5, 6),
		op(4, spec.OpDeq, 0, 10, 7, 8),
	}
	if !mustCheck(t, ty, overlapped).Ok {
		t.Fatal("overlapping enqueues permit either order")
	}
}

func TestCheckRegister(t *testing.T) {
	ty := spec.RegisterType{}
	// Read overlapping a write may return old or new value.
	for _, readVal := range []int64{0, 7} {
		ops := []trace.Op{
			op(1, spec.OpWrite, 7, 0, 1, 4),
			op(2, spec.OpRead, 0, readVal, 2, 3),
		}
		if !mustCheck(t, ty, ops).Ok {
			t.Fatalf("read=%d should linearize against overlapping write", readVal)
		}
	}
	// A read strictly after the write must see it.
	ops := []trace.Op{
		op(1, spec.OpWrite, 7, 0, 1, 2),
		op(2, spec.OpRead, 0, 0, 3, 4),
	}
	if mustCheck(t, ty, ops).Ok {
		t.Fatal("stale read after completed write accepted")
	}
}

func TestCheckEmpty(t *testing.T) {
	if !mustCheck(t, spec.TASType{}, nil).Ok {
		t.Fatal("empty history must linearize")
	}
	if !mustCheckTAS(t, nil).Ok {
		t.Fatal("empty TAS history must linearize")
	}
}

func TestCheckTASAllPending(t *testing.T) {
	ops := []trace.Op{pend(1, spec.OpTAS, 0, 1), pend(2, spec.OpTAS, 0, 2)}
	if !mustCheckTAS(t, ops).Ok || !mustCheck(t, spec.TASType{}, ops).Ok {
		t.Fatal("all-pending history must linearize")
	}
}

func TestCheckRejectsContractViolations(t *testing.T) {
	// An unprojected aborted operation is a miswired caller, reported as
	// an error rather than a panic (or, worse, a verdict).
	aborted := trace.Op{Req: spec.Request{ID: 1, Op: spec.OpTAS}, Aborted: true}
	if _, _, err := CheckJIT(spec.TASType{}, []trace.Op{aborted}, JITConfig{}); err == nil {
		t.Fatal("expected an error on an unprojected aborted op")
	}
	// CheckTAS, the closed form, shares the error contract.
	if _, err := CheckTAS([]trace.Op{aborted}); err == nil {
		t.Fatal("expected CheckTAS to error on an unprojected aborted op")
	}
}

// mustCheckTAS is mustCheck's counterpart for the specialized TAS checker. It
// also holds the witness-free form to the same verdict, so every history
// the suite feeds CheckTAS cross-checks CheckTASVerdict too.
func mustCheckTAS(t *testing.T, ops []trace.Op) Result {
	t.Helper()
	res, err := CheckTAS(ops)
	if err != nil {
		t.Fatal(err)
	}
	v, err := CheckTASVerdict(ops)
	if err != nil || v.Ok != res.Ok || v.Reason != res.Reason || v.Witness != nil {
		t.Fatalf("CheckTASVerdict = %+v, %v; CheckTAS = %+v", v, err, res)
	}
	return res
}

// Property: the generic checker and the specialized TAS checker agree on
// random TAS executions (completed and pending ops, random intervals,
// random responses).
func TestCrossValidateTASChecker(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	agreeOk, agreeBad := 0, 0
	for iter := 0; iter < 3000; iter++ {
		k := 1 + rng.Intn(5)
		var ops []trace.Op
		stamp := int64(1)
		type iv struct{ inv, ret int64 }
		ivs := make([]iv, k)
		for i := range ivs {
			ivs[i].inv = stamp
			stamp++
		}
		// Random return stamps interleaved after invocations.
		for i := range ivs {
			ivs[i].ret = stamp + int64(rng.Intn(2*k))
			stamp++
		}
		for i := 0; i < k; i++ {
			id := int64(i + 1)
			switch rng.Intn(3) {
			case 0:
				ops = append(ops, op(id, spec.OpTAS, 0, spec.Winner, ivs[i].inv, ivs[i].ret))
			case 1:
				ops = append(ops, op(id, spec.OpTAS, 0, spec.Loser, ivs[i].inv, ivs[i].ret))
			default:
				ops = append(ops, pend(id, spec.OpTAS, 0, ivs[i].inv))
			}
		}
		g := mustCheck(t, spec.TASType{}, ops)
		s := mustCheckTAS(t, ops)
		if g.Ok != s.Ok {
			t.Fatalf("checkers disagree on %+v: generic=%v specialized=%v (%s / %s)",
				ops, g.Ok, s.Ok, g.Reason, s.Reason)
		}
		if g.Ok {
			agreeOk++
		} else {
			agreeBad++
		}
	}
	if agreeOk == 0 || agreeBad == 0 {
		t.Fatalf("degenerate sampling: ok=%d bad=%d", agreeOk, agreeBad)
	}
}

func TestCheckWitnessIsValidLinearization(t *testing.T) {
	ty := spec.QueueType{}
	ops := []trace.Op{
		op(1, spec.OpEnq, 10, 0, 1, 5),
		op(2, spec.OpEnq, 20, 0, 2, 4),
		op(3, spec.OpDeq, 0, 20, 6, 7),
	}
	res := mustCheck(t, ty, ops)
	if !res.Ok {
		t.Fatal("history should linearize (enq20 before enq10)")
	}
	// Replaying the witness sequentially must reproduce the committed
	// responses.
	state := ty.Start()
	resp := map[int64]int64{}
	for _, r := range res.Witness {
		var v int64
		state, v = state.Apply(r)
		resp[r.ID] = v
	}
	for _, o := range ops {
		if !o.Pending {
			if got, ok := resp[o.Req.ID]; !ok || got != o.Resp {
				t.Fatalf("witness response for op %d = %d (present=%v), want %d", o.Req.ID, got, ok, o.Resp)
			}
		}
	}
}
