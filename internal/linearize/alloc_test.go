package linearize

// Allocation budgets of the JIT checker, as runtime.MemStats deltas: exact
// enough to be independent of machine load, unlike a wall-clock assertion.
// A check must not allocate in proportion to the history — no copy of it,
// no per-configuration memo key, no per-segment solver — or the garbage
// collector, not the search, sets the time-to-verdict.

import (
	"runtime"
	"testing"

	"repro/internal/spec"
	"repro/internal/trace"
)

// measureAllocs reports the mallocs and bytes f allocates, process-wide.
// The tests in this package do not run in parallel, so nothing else
// allocates meanwhile.
func measureAllocs(f func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestJITAllocBudget pins both ways the checker is driven. Budgets are
// what the code reaches plus a quarter.
func TestJITAllocBudget(t *testing.T) {
	// One CheckObjects call on the wide 2^16-op composed history (windows
	// of ≈511, 2 objects). Before the index/scratch rewrite: ≈1500 bytes
	// and ≈2.6 mallocs per operation. What remains is the 8 bytes of index
	// per operation, the interner's tables for 32768 counter states, and
	// one boxed counter value per state (half a malloc per operation).
	t.Run("CheckObjects wide", func(t *testing.T) {
		const (
			total       = 1 << 16
			maxBytesOp  = 210
			maxMallocOp = 0.65
		)
		objects := map[string]spec.Type{"tas": spec.TASType{}, "fai": spec.FetchIncType{}}
		ops := millionOpHistory(total, 64, 192)
		var res Result
		var st Stats
		var err error
		mallocs, bytes := measureAllocs(func() { res, st, err = CheckObjects(objects, ops, JITConfig{}) })
		if err != nil || !res.Ok || st.Ops != total {
			t.Fatalf("ok=%v (%s), %d ops, err %v", res.Ok, res.Reason, st.Ops, err)
		}
		perB, perM := float64(bytes)/total, float64(mallocs)/total
		t.Logf("%.0f bytes and %.2f mallocs per operation", perB, perM)
		if perB > maxBytesOp || perM > maxMallocOp {
			t.Errorf("%.0f bytes and %.2f mallocs per operation, budget %d and %.2f", perB, perM, maxBytesOp, maxMallocOp)
		}
	})

	// One Stream fed 2^16 operations with a Barrier every 12 — the stress
	// tier's online shape, a round per object instance. Before: an
	// interner with three maps per round and a solver with two more per
	// segment, ≈90 mallocs and ≈10.8 KB per round. A warmed stream now
	// resets all of it in place.
	t.Run("Stream barrier rounds", func(t *testing.T) {
		const (
			rounds        = 1 << 16 / 12
			maxMallocsRnd = 0.05
			maxBytesRnd   = 16
		)
		s := NewStream(spec.FetchIncType{}, JITConfig{})
		round := func() {
			for i := int64(0); i < 12; i++ {
				// Four overlapping tickets at a time.
				o := trace.Op{Req: spec.Request{ID: i + 1, Op: spec.OpInc}, Resp: i, Inv: 10 * (i / 4), Ret: 10*(i/4) + 5 + i%4}
				if err := s.Push(o); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Barrier(); err != nil {
				t.Fatal(err)
			}
		}
		round() // warm-up: the buffers grow to the round's size once
		mallocs, bytes := measureAllocs(func() {
			for r := 0; r < rounds; r++ {
				round()
			}
		})
		if f := s.Failed(); f != nil {
			t.Fatalf("rounds rejected: %s", f.Reason)
		}
		if st := s.Stats(); st.Ops != 12*(rounds+1) || st.Windows < rounds {
			t.Fatalf("stats %+v: want %d ops in at least %d windows", st, 12*(rounds+1), rounds)
		}
		perM, perB := float64(mallocs)/rounds, float64(bytes)/rounds
		t.Logf("%.3f mallocs and %.1f bytes per round", perM, perB)
		if perM > maxMallocsRnd || perB > maxBytesRnd {
			t.Errorf("%.3f mallocs and %.1f bytes per round, budget %.2f and %d", perM, perB, maxMallocsRnd, maxBytesRnd)
		}
	})
}
