package trace

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/spec"
)

// appendOpsBySort is the reference AppendOps: match each process's events
// into operations, append them process by process, then stable-sort the
// appended run by invocation stamp.
func appendOpsBySort(r *Recorder, dst []Op) []Op {
	base := len(dst)
	for pi := range r.procs {
		cur := -1 // index in dst of the process's open operation
		for _, e := range r.procs[pi].events {
			switch e.Kind {
			case Invoke, Init:
				cur = len(dst)
				dst = append(dst, Op{Proc: pi, Req: e.Req, Inv: e.Seq, Pending: true, IsInit: e.Kind == Init, InitSV: e.SV})
			case Commit, Abort:
				if cur < 0 || dst[cur].Req.ID != e.Req.ID {
					panic(fmt.Sprintf("reference: %v of %v without matching invocation", e.Kind, e.Req))
				}
				op := &dst[cur]
				op.Ret, op.Pending, op.Module = e.Seq, false, e.Module
				if e.Kind == Commit {
					op.Resp = e.Resp
				} else {
					op.SV, op.Aborted = e.SV, true
				}
				cur = -1
			}
		}
	}
	slices.SortStableFunc(dst[base:], func(a, b Op) int { return cmp.Compare(a.Inv, b.Inv) })
	return dst
}

// recordRandom records a random history on n processes: each performs ops
// operations, interleaved at random, opened by an invoke or an init and
// closed by a commit or an abort, except that a process's last operation
// may be left pending. Stamps come from a clock that advances by 0 or 1
// per event, so processes share stamps (strictly increasing per process
// all the same) and ties are exercised.
func recordRandom(r *Recorder, rng *rand.Rand, n, ops int) {
	r.Reset()
	clock, last := int64(0), make([]int64, n)
	r.SetStampSource(func(p int) int64 {
		clock += int64(rng.Intn(2))
		clock = max(clock, last[p]+1)
		last[p] = clock
		return clock
	})
	left := make([]int, n)           // operations still to start
	open := make([]*spec.Request, n) // the open operation, if any
	live := make([]int, 0, n)
	for p := range left {
		left[p] = ops
		live = append(live, p)
	}
	id := int64(0)
	for len(live) > 0 {
		k := rng.Intn(len(live))
		p := live[k]
		if m := open[p]; m != nil {
			if rng.Intn(2) == 0 {
				r.RecordCommit(p, *m, rng.Int63n(3), fmt.Sprintf("m%d", rng.Intn(2)))
			} else {
				r.RecordAbort(p, *m, "W", "m0")
			}
			open[p] = nil
			continue
		}
		if left[p] == 0 {
			live = slices.Delete(live, k, k+1)
			continue
		}
		left[p]--
		id++
		m := spec.Request{ID: id, Proc: p, Op: spec.OpTAS}
		if rng.Intn(3) == 0 {
			r.RecordInit(p, m, "L")
		} else {
			r.RecordInvoke(p, m)
		}
		if left[p] == 0 && rng.Intn(3) == 0 {
			live = slices.Delete(live, k, k+1) // left pending
			continue
		}
		open[p] = &m
	}
}

// The merge of per-process runs is exactly the sort it replaced: the same
// operations in the same order, ties included, for Ops and for Events, and
// a warmed AppendOps allocates nothing even at 64 processes.
func TestAppendOpsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 16, 64} {
		r := NewRecorder(n)
		var got, want []Op
		for trial := 0; trial < 50; trial++ {
			recordRandom(r, rng, n, 1+rng.Intn(4))
			prefix := []Op{{Proc: -1}}
			got = r.AppendOps(append(got[:0], prefix...))
			want = appendOpsBySort(r, append(want[:0], prefix...))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d trial %d: merge\n%+v\nstable sort\n%+v", n, trial, got, want)
			}
			var evs []Event
			for pi := range r.procs {
				evs = append(evs, r.procs[pi].events...)
			}
			slices.SortStableFunc(evs, func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) })
			if merged := r.Events(); !reflect.DeepEqual(merged, evs) {
				t.Fatalf("n=%d trial %d: Events\n%v\nstable sort\n%v", n, trial, merged, evs)
			}
		}
		if n == 64 {
			if allocs := testing.AllocsPerRun(100, func() { got = r.AppendOps(got[:0]) }); allocs != 0 {
				t.Errorf("warmed AppendOps at n=64: %.1f allocations per call, want 0", allocs)
			}
		}
	}
}
