package snapshot

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/sched"
)

func TestSequentialScanUpdate(t *testing.T) {
	env := memory.NewEnv(3)
	s := New(3, int64(0))
	p := env.Proc(0)
	view := s.Scan(p)
	for i, v := range view {
		if v != 0 {
			t.Fatalf("initial view[%d] = %d", i, v)
		}
	}
	s.Update(env.Proc(1), 1, 42)
	view = s.Scan(p)
	if view[0] != 0 || view[1] != 42 || view[2] != 0 {
		t.Fatalf("view = %v", view)
	}
	if got := s.ReadComponent(p, 1); got != 42 {
		t.Fatalf("ReadComponent = %d", got)
	}
	if got := s.ReadComponent(p, 2); got != 0 {
		t.Fatalf("ReadComponent of untouched = %d", got)
	}
	if s.N() != 3 {
		t.Fatalf("N = %d", s.N())
	}
}

func TestGenericValues(t *testing.T) {
	env := memory.NewEnv(2)
	s := New(2, []int(nil))
	s.Update(env.Proc(0), 0, []int{1, 2})
	view := s.Scan(env.Proc(1))
	if len(view[0]) != 2 || view[0][1] != 2 || view[1] != nil {
		t.Fatalf("view = %v", view)
	}
}

// Exhaustive small-scope atomicity: one updater writes 1 then 2 to its
// component; one scanner scans twice. Scans must be monotone (a later scan
// cannot observe an older value) and each scan must return 0, 1 or 2.
func TestExhaustiveScanMonotone(t *testing.T) {
	h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(2)
		s := New(2, int64(0))
		env.Register(s)
		var v1, v2 []int64
		bodies := []func(p *memory.Proc){
			func(p *memory.Proc) {
				s.Update(p, 0, 1)
				s.Update(p, 0, 2)
			},
			func(p *memory.Proc) {
				v1 = s.Scan(p)
				v2 = s.Scan(p)
			},
		}
		check := func(res *sched.Result) error {
			if v1[0] > v2[0] {
				return fmt.Errorf("scan went backwards: %v then %v", v1, v2)
			}
			for _, v := range []int64{v1[0], v2[0]} {
				if v < 0 || v > 2 {
					return fmt.Errorf("impossible value %d", v)
				}
			}
			return nil
		}
		reset := func() {
			v1, v2 = nil, nil
		}
		return env, bodies, check, reset
	}
	rep, err := engine.Run(h, engine.Config{Prune: engine.PruneSourceDPOR, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explored %d interleavings (partial=%v)", rep.Executions, rep.Partial)
}

// Two concurrent updaters and a scanner: the returned view must be a
// component-wise cut no older than what each updater had completed before
// the scan began (validity) — checked under exhaustive interleavings with
// single-step updates.
func TestExhaustiveScanSeesCompletedUpdates(t *testing.T) {
	h := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(2)
		s := New(2, int64(0))
		env.Register(s)
		var view []int64
		bodies := []func(p *memory.Proc){
			func(p *memory.Proc) { s.Update(p, 0, 7) },
			func(p *memory.Proc) {
				s.Update(p, 1, 9) // completes before the scan starts
				view = s.Scan(p)
			},
		}
		check := func(res *sched.Result) error {
			if view[1] != 9 {
				return fmt.Errorf("scanner missed its own completed update: %v", view)
			}
			if view[0] != 0 && view[0] != 7 {
				return fmt.Errorf("impossible component value: %v", view)
			}
			return nil
		}
		reset := func() {
			view = nil
		}
		return env, bodies, check, reset
	}
	rep, err := engine.Run(h, engine.Config{Prune: engine.PruneSourceDPOR, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explored %d interleavings (partial=%v)", rep.Executions, rep.Partial)
}

// Stress: concurrent updaters with monotonically increasing values; every
// scan must be component-wise monotone over time per scanner, and values
// must only come from the written sequence.
func TestStressMonotoneViews(t *testing.T) {
	const n = 4
	const rounds = 300
	env := memory.NewEnv(2 * n)
	s := New(2*n, int64(0))
	var wg sync.WaitGroup
	errCh := make(chan error, 2*n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := env.Proc(i)
			for k := 1; k <= rounds; k++ {
				s.Update(p, i, int64(k))
			}
		}(i)
	}
	for i := n; i < 2*n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := env.Proc(i)
			prev := make([]int64, 2*n)
			for k := 0; k < rounds; k++ {
				view := s.Scan(p)
				for j := range view {
					if view[j] < prev[j] {
						errCh <- fmt.Errorf("scanner %d saw component %d go backwards: %d -> %d", i, j, prev[j], view[j])
						return
					}
				}
				prev = view
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestUpdateStepComplexityLinearInN(t *testing.T) {
	// Solo Update cost grows linearly with the number of components — the
	// substrate cost behind experiment E3.
	costs := map[int]int64{}
	for _, n := range []int{2, 4, 8, 16} {
		env := memory.NewEnv(n)
		s := New(n, int64(0))
		p := env.Proc(0)
		p.ResetCounters()
		s.Update(p, 0, 1)
		costs[n] = p.Steps()
	}
	if costs[16] <= costs[2] {
		t.Fatalf("update cost should grow with n: %v", costs)
	}
	// Solo update = scan (2 collects) + read + write ≈ 2n+2.
	if costs[8] < 16 || costs[8] > 40 {
		t.Fatalf("unexpected solo update cost for n=8: %d", costs[8])
	}
}
