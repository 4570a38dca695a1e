package trace

import (
	"sync"
	"testing"

	"repro/internal/spec"
)

func TestRecorderStampsMonotone(t *testing.T) {
	r := NewRecorder(2)
	m1 := spec.Request{ID: 1, Proc: 0, Op: spec.OpTAS}
	m2 := spec.Request{ID: 2, Proc: 1, Op: spec.OpTAS}
	s1 := r.RecordInvoke(0, m1)
	s2 := r.RecordInvoke(1, m2)
	s3 := r.RecordCommit(0, m1, spec.Winner, "A1")
	s4 := r.RecordCommit(1, m2, spec.Loser, "A2")
	if !(s1 < s2 && s2 < s3 && s3 < s4) {
		t.Fatalf("stamps not monotone: %d %d %d %d", s1, s2, s3, s4)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatal("merged events out of order")
		}
	}
}

func TestOpsMatching(t *testing.T) {
	r := NewRecorder(2)
	m1 := spec.Request{ID: 1, Proc: 0, Op: spec.OpTAS}
	m2 := spec.Request{ID: 2, Proc: 1, Op: spec.OpTAS}
	m3 := spec.Request{ID: 3, Proc: 0, Op: spec.OpTAS}
	r.RecordInvoke(0, m1)
	r.RecordInvoke(1, m2)
	r.RecordCommit(0, m1, spec.Winner, "A1")
	r.RecordAbort(1, m2, "W", "A1")
	r.RecordInvoke(0, m3) // left pending

	ops := r.Ops()
	if len(ops) != 3 {
		t.Fatalf("ops = %d, want 3", len(ops))
	}
	byID := map[int64]Op{}
	for _, o := range ops {
		byID[o.Req.ID] = o
	}
	if o := byID[1]; !o.Committed() || o.Resp != spec.Winner || o.Module != "A1" {
		t.Fatalf("op1 = %+v", o)
	}
	if o := byID[2]; !o.Aborted || o.SV != "W" {
		t.Fatalf("op2 = %+v", o)
	}
	if o := byID[3]; !o.Pending {
		t.Fatalf("op3 = %+v", o)
	}
	// Sorted by invocation.
	if !(ops[0].Inv < ops[1].Inv && ops[1].Inv < ops[2].Inv) {
		t.Fatal("ops not sorted by invocation")
	}
}

func TestOpsInitEvents(t *testing.T) {
	r := NewRecorder(1)
	m := spec.Request{ID: 1, Proc: 0, Op: spec.OpTAS}
	r.RecordInit(0, m, "L")
	r.RecordCommit(0, m, spec.Loser, "A2")
	ops := r.Ops()
	if len(ops) != 1 || !ops[0].IsInit || ops[0].InitSV != "L" {
		t.Fatalf("ops = %+v", ops)
	}
}

func TestPrecededBy(t *testing.T) {
	r := NewRecorder(2)
	m1 := spec.Request{ID: 1, Proc: 0, Op: spec.OpTAS}
	m2 := spec.Request{ID: 2, Proc: 1, Op: spec.OpTAS}
	r.RecordInvoke(0, m1)
	r.RecordCommit(0, m1, spec.Winner, "")
	r.RecordInvoke(1, m2)
	r.RecordCommit(1, m2, spec.Loser, "")
	ops := r.Ops()
	var o1, o2 Op
	for _, o := range ops {
		if o.Req.ID == 1 {
			o1 = o
		} else {
			o2 = o
		}
	}
	if !o2.PrecededBy(o1) {
		t.Fatal("op1 completed before op2 invoked")
	}
	if o1.PrecededBy(o2) {
		t.Fatal("precedence inverted")
	}
}

// Responses that no open invocation of their process matches are contract
// violations, wherever in the log they sit.
func TestCommitWithoutInvokePanics(t *testing.T) {
	m1 := spec.Request{ID: 1, Proc: 0, Op: spec.OpTAS}
	m2 := spec.Request{ID: 2, Proc: 0, Op: spec.OpTAS}
	for name, record := range map[string]func(r *Recorder){
		"commit first":        func(r *Recorder) { r.RecordCommit(0, m1, 0, "") },
		"abort first":         func(r *Recorder) { r.RecordAbort(0, m1, "W", "") },
		"commit twice":        func(r *Recorder) { r.RecordInvoke(0, m1); r.RecordCommit(0, m1, 0, ""); r.RecordCommit(0, m1, 0, "") },
		"abort after commit":  func(r *Recorder) { r.RecordInvoke(0, m1); r.RecordCommit(0, m1, 0, ""); r.RecordAbort(0, m1, "W", "") },
		"commit of other id":  func(r *Recorder) { r.RecordInvoke(0, m1); r.RecordCommit(0, m2, 0, "") },
		"abort of earlier op": func(r *Recorder) { r.RecordInvoke(0, m1); r.RecordInvoke(0, m2); r.RecordAbort(0, m1, "W", "") },
	} {
		t.Run(name, func(t *testing.T) {
			r := NewRecorder(2)
			r.RecordInvoke(1, spec.Request{ID: 9, Proc: 1, Op: spec.OpTAS}) // another process's run in the merge
			record(r)
			defer func() {
				if recover() == nil {
					t.Fatal("Ops accepted an unmatched response")
				}
			}()
			r.Ops()
		})
	}
}

func TestConcurrentRecordingDistinctStamps(t *testing.T) {
	const n, per = 8, 200
	r := NewRecorder(n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				m := spec.Request{ID: int64(i*per + j + 1), Proc: i, Op: spec.OpInc}
				r.RecordInvoke(i, m)
				r.RecordCommit(i, m, int64(j), "")
			}
		}(i)
	}
	wg.Wait()
	evs := r.Events()
	if len(evs) != n*per*2 {
		t.Fatalf("events = %d", len(evs))
	}
	seen := map[int64]bool{}
	for _, e := range evs {
		if seen[e.Seq] {
			t.Fatalf("duplicate stamp %d", e.Seq)
		}
		seen[e.Seq] = true
	}
	ops := r.Ops()
	if len(ops) != n*per {
		t.Fatalf("ops = %d", len(ops))
	}
	for _, o := range ops {
		if o.Pending {
			t.Fatal("no op should be pending")
		}
	}
}

func TestEventAndKindStrings(t *testing.T) {
	for _, k := range []EventKind{Invoke, Init, Commit, Abort} {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
	if EventKind(9).String() == "" {
		t.Fatal("unknown kind should stringify")
	}
	m := spec.Request{ID: 1, Proc: 0, Op: spec.OpTAS}
	for _, e := range []Event{
		{Kind: Invoke, Req: m}, {Kind: Init, Req: m, SV: "W"},
		{Kind: Commit, Req: m, Resp: 1}, {Kind: Abort, Req: m, SV: "L"},
	} {
		if e.String() == "" {
			t.Fatal("empty event string")
		}
	}
}

func TestResetWithPendingOps(t *testing.T) {
	// A pooled harness may reset mid-history state: an execution cut off by
	// a crash leaves invocations without responses. Reset must discard the
	// pending halves too, so the next execution cannot mismatch a stale
	// invocation with a fresh response.
	r := NewRecorder(2)
	m1 := spec.Request{ID: 1, Proc: 0, Op: spec.OpTAS}
	m2 := spec.Request{ID: 2, Proc: 1, Op: spec.OpTAS}
	r.RecordInvoke(0, m1)
	r.RecordInvoke(1, m2)
	r.RecordCommit(1, m2, spec.Loser, "A1")
	ops := r.Ops()
	if len(ops) != 2 || !ops[0].Pending || ops[1].Pending {
		t.Fatalf("precondition: want one pending and one committed op, got %+v", ops)
	}

	r.Reset()
	if evs := r.Events(); len(evs) != 0 {
		t.Fatalf("events survive Reset: %v", evs)
	}
	if ops := r.Ops(); len(ops) != 0 {
		t.Fatalf("ops survive Reset: %+v", ops)
	}

	// The recorder must be indistinguishable from a fresh one: stamps
	// restart at 1, so replayed executions reproduce identical traces.
	m := spec.Request{ID: 1, Proc: 0, Op: spec.OpTAS}
	if s := r.RecordInvoke(0, m); s != 1 {
		t.Fatalf("first stamp after Reset = %d, want 1", s)
	}
	r.RecordCommit(0, m, spec.Winner, "A1")
	ops = r.Ops()
	if len(ops) != 1 || ops[0].Pending || ops[0].Resp != spec.Winner {
		t.Fatalf("recording after Reset broken: %+v", ops)
	}
}

// AppendOps is Ops into a caller's buffer: same operations in the same
// order, appended after what the buffer already holds, and a re-sliced
// buffer is reused without carrying anything over.
func TestAppendOpsMatchesOps(t *testing.T) {
	r := NewRecorder(3)
	m1 := spec.Request{ID: 1, Proc: 0, Op: spec.OpTAS}
	m2 := spec.Request{ID: 2, Proc: 1, Op: spec.OpTAS}
	m3 := spec.Request{ID: 3, Proc: 0, Op: spec.OpTAS}
	m4 := spec.Request{ID: 4, Proc: 2, Op: spec.OpTAS}
	r.RecordInit(2, m4, "sv")
	r.RecordInvoke(1, m2)
	r.RecordInvoke(0, m1)
	r.RecordCommit(0, m1, spec.Winner, "A1")
	r.RecordAbort(1, m2, "W", "A1")
	r.RecordInvoke(0, m3) // left pending
	r.RecordCommit(2, m4, spec.Loser, "A2")

	want := r.Ops()
	if len(want) != 4 {
		t.Fatalf("ops = %d, want 4", len(want))
	}
	keep := Op{Proc: 9}
	got := r.AppendOps([]Op{keep})
	if len(got) != 5 || got[0] != keep {
		t.Fatalf("AppendOps disturbed the buffer's prefix: %+v", got)
	}
	for round := 0; round < 2; round++ {
		for i, o := range got[len(got)-len(want):] {
			if o != want[i] {
				t.Fatalf("round %d op %d = %+v, want %+v", round, i, o, want[i])
			}
		}
		got = r.AppendOps(got[:0])
	}
}
