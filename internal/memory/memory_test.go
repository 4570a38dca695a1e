package memory

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestEnvBasics(t *testing.T) {
	e := NewEnv(4)
	if e.N() != 4 {
		t.Fatalf("N() = %d, want 4", e.N())
	}
	for i := 0; i < 4; i++ {
		if e.Proc(i).ID() != i {
			t.Fatalf("Proc(%d).ID() = %d", i, e.Proc(i).ID())
		}
		if e.Proc(i).Env() != e {
			t.Fatalf("Proc(%d).Env() mismatch", i)
		}
	}
	if len(e.Procs()) != 4 {
		t.Fatalf("Procs() len = %d", len(e.Procs()))
	}
}

func TestNewEnvPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEnv(0) did not panic")
		}
	}()
	NewEnv(0)
}

func TestStepAccounting(t *testing.T) {
	e := NewEnv(2)
	p := e.Proc(0)
	r := NewIntReg(-1)
	c := NewCASReg(0)

	if got := r.Read(p); got != -1 {
		t.Fatalf("initial read = %d, want -1", got)
	}
	r.Write(p, 7)
	if got := r.Read(p); got != 7 {
		t.Fatalf("read after write = %d, want 7", got)
	}
	if !c.CompareAndSwap(p, 0, 5) {
		t.Fatal("CAS 0->5 failed")
	}
	if c.CompareAndSwap(p, 0, 9) {
		t.Fatal("CAS 0->9 unexpectedly succeeded")
	}

	if got := p.Steps(); got != 5 {
		t.Fatalf("steps = %d, want 5", got)
	}
	if got := p.RMWs(); got != 2 {
		t.Fatalf("rmws = %d, want 2", got)
	}
	if got := e.TotalSteps(); got != 5 {
		t.Fatalf("total steps = %d, want 5", got)
	}
	if got := e.TotalRMWs(); got != 2 {
		t.Fatalf("total rmws = %d, want 2", got)
	}
	e.ResetCounters()
	if p.Steps() != 0 || p.RMWs() != 0 {
		t.Fatal("ResetCounters did not zero counters")
	}
}

func TestNilProcSkipsAccounting(t *testing.T) {
	r := NewIntReg(3)
	if got := r.Read(nil); got != 3 {
		t.Fatalf("read with nil proc = %d, want 3", got)
	}
	r.Write(nil, 4)
	if got := r.Read(nil); got != 4 {
		t.Fatalf("read = %d, want 4", got)
	}
}

func TestOpKind(t *testing.T) {
	if OpRead.IsRMW() || OpWrite.IsRMW() {
		t.Fatal("read/write must not be RMW")
	}
	for _, k := range []OpKind{OpCAS, OpTAS, OpFetchInc, OpSwap} {
		if !k.IsRMW() {
			t.Fatalf("%v must be RMW", k)
		}
	}
	names := map[OpKind]string{
		OpRead: "read", OpWrite: "write", OpCAS: "cas",
		OpTAS: "tas", OpFetchInc: "fetch-inc", OpSwap: "swap",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if OpKind(99).String() == "" {
		t.Fatal("unknown OpKind should still stringify")
	}
}

func TestBoolReg(t *testing.T) {
	p := NewDetachedProc(0)
	b := NewBoolReg(false)
	if b.Read(p) {
		t.Fatal("initial value should be false")
	}
	b.Write(p, true)
	if !b.Read(p) {
		t.Fatal("value should be true after write")
	}
	b2 := NewBoolReg(true)
	if !b2.Read(p) {
		t.Fatal("NewBoolReg(true) should read true")
	}
}

func TestGenericReg(t *testing.T) {
	type pair struct{ ts, v int }
	p := NewDetachedProc(0)
	r := NewReg[pair](nil)
	if r.Read(p) != nil {
		t.Fatal("initial value should be ⊥ (nil)")
	}
	r.Write(p, &pair{ts: 1, v: 42})
	got := r.Read(p)
	if got == nil || got.ts != 1 || got.v != 42 {
		t.Fatalf("read = %+v", got)
	}
	r.Write(p, nil)
	if r.Read(p) != nil {
		t.Fatal("write nil should reset to ⊥")
	}
}

func TestRegArrayCollect(t *testing.T) {
	p := NewDetachedProc(0)
	a := NewRegArray(4, -1)
	if a.Len() != 4 {
		t.Fatalf("Len = %d", a.Len())
	}
	for _, v := range a.Collect(p) {
		if v != -1 {
			t.Fatalf("initial collect saw %d, want -1", v)
		}
	}
	a.Write(p, 2, 9)
	got := a.Collect(p)
	want := []int64{-1, -1, 9, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("collect[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Collect charges one step per register.
	p.ResetCounters()
	a.Collect(p)
	if p.Steps() != 4 {
		t.Fatalf("collect steps = %d, want 4", p.Steps())
	}
}

func TestHardwareTASUniqueWinner(t *testing.T) {
	const n = 8
	e := NewEnv(n)
	tas := NewHardwareTAS()
	results := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = tas.TestAndSet(e.Proc(i))
		}(i)
	}
	wg.Wait()
	winners := 0
	for _, r := range results {
		if r == 0 {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("winners = %d, want exactly 1", winners)
	}
	if tas.Read(e.Proc(0)) != 1 {
		t.Fatal("TAS value should be 1 after any TestAndSet")
	}
	tas.Reset(e.Proc(0))
	if tas.Read(e.Proc(0)) != 0 {
		t.Fatal("TAS value should be 0 after Reset")
	}
}

func TestCASCell(t *testing.T) {
	p := NewDetachedProc(0)
	c := NewCASCell[int]()
	if c.Read(p) != nil {
		t.Fatal("cell should start empty")
	}
	v1, v2 := 10, 20
	got, won := c.PutIfEmpty(p, &v1)
	if !won || *got != 10 {
		t.Fatalf("first put: won=%v got=%v", won, got)
	}
	got, won = c.PutIfEmpty(p, &v2)
	if won || *got != 10 {
		t.Fatalf("second put must lose and observe 10: won=%v got=%v", won, got)
	}
}

func TestCASCellConcurrentAgreement(t *testing.T) {
	const n = 16
	e := NewEnv(n)
	c := NewCASCell[int]()
	out := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := i
			got, _ := c.PutIfEmpty(e.Proc(i), &v)
			out[i] = *got
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if out[i] != out[0] {
			t.Fatalf("disagreement: out[%d]=%d out[0]=%d", i, out[i], out[0])
		}
	}
}

func TestFetchInc(t *testing.T) {
	p := NewDetachedProc(0)
	c := NewFetchInc(0)
	if c.Read(p) != 0 {
		t.Fatal("initial counter should be 0")
	}
	if c.Inc(p) != 1 || c.Inc(p) != 2 {
		t.Fatal("Inc should return 1 then 2")
	}
	c.Write(p, 10)
	if c.Read(p) != 10 {
		t.Fatal("Write(10) not observed")
	}
}

func TestFetchIncConcurrent(t *testing.T) {
	const n, per = 8, 1000
	e := NewEnv(n)
	c := NewFetchInc(0)
	var wg sync.WaitGroup
	seen := make([][]int64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				seen[i] = append(seen[i], c.Inc(e.Proc(i)))
			}
		}(i)
	}
	wg.Wait()
	all := map[int64]bool{}
	for _, s := range seen {
		for _, v := range s {
			if all[v] {
				t.Fatalf("duplicate ticket %d", v)
			}
			all[v] = true
		}
	}
	if int64(len(all)) != n*per || c.Read(e.Proc(0)) != n*per {
		t.Fatalf("tickets=%d final=%d want %d", len(all), c.Read(e.Proc(0)), n*per)
	}
}

func TestGrowArraySlotAgreement(t *testing.T) {
	e := NewEnv(8)
	next := 0
	a := NewGrowArray(func(i int) *int {
		next++
		v := i * 100
		return &v
	})
	var wg sync.WaitGroup
	got := make([]*int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = a.Get(e.Proc(i), 5)
		}(i)
	}
	wg.Wait()
	for i := 1; i < 8; i++ {
		if got[i] != got[0] {
			t.Fatal("processes disagree on slot object identity")
		}
	}
	if *got[0] != 500 {
		t.Fatalf("slot value = %d, want 500", *got[0])
	}
}

func TestGrowArrayPeek(t *testing.T) {
	p := NewDetachedProc(0)
	a := NewGrowArray(func(i int) *int { v := i; return &v })
	if a.Peek(p, 3) != nil {
		t.Fatal("Peek before Get should be nil")
	}
	a.Get(p, 3)
	if got := a.Peek(p, 3); got == nil || *got != 3 {
		t.Fatalf("Peek after Get = %v", got)
	}
	// Peek of an index in an allocated chunk but never created slot.
	if a.Peek(p, 4) != nil {
		t.Fatal("Peek of uncreated slot in allocated chunk should be nil")
	}
}

func TestGrowArrayCrossChunk(t *testing.T) {
	p := NewDetachedProc(0)
	a := NewGrowArray(func(i int) *int { v := i; return &v })
	idxs := []int{0, chunkSize - 1, chunkSize, chunkSize + 1, 3 * chunkSize}
	for _, i := range idxs {
		if got := a.Get(p, i); *got != i {
			t.Fatalf("Get(%d) = %d", i, *got)
		}
	}
}

func TestGrowArrayBoundsPanic(t *testing.T) {
	p := NewDetachedProc(0)
	a := NewGrowArray(func(i int) *int { v := i; return &v })
	for _, idx := range []int{-1, a.Cap()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Get(%d) did not panic", idx)
				}
			}()
			a.Get(p, idx)
		}()
	}
}

// Property: for any sequence of writes, a register read returns the last
// value written (single-threaded register semantics).
func TestQuickRegisterLastWriteWins(t *testing.T) {
	p := NewDetachedProc(0)
	f := func(vals []int64) bool {
		r := NewIntReg(-1)
		last := int64(-1)
		for _, v := range vals {
			r.Write(p, v)
			last = v
		}
		return r.Read(p) == last
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: step count equals number of primitive accesses performed.
func TestQuickStepCountMatchesAccesses(t *testing.T) {
	f := func(reads, writes uint8) bool {
		p := NewDetachedProc(0)
		r := NewIntReg(0)
		for i := 0; i < int(reads); i++ {
			r.Read(p)
		}
		for i := 0; i < int(writes); i++ {
			r.Write(p, int64(i))
		}
		return p.Steps() == int64(reads)+int64(writes) && p.RMWs() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: fetch-and-increment issues strictly increasing values and each
// Inc counts as exactly one RMW.
func TestQuickFetchIncMonotone(t *testing.T) {
	f := func(k uint8) bool {
		p := NewDetachedProc(0)
		c := NewFetchInc(0)
		prev := int64(0)
		for i := 0; i < int(k); i++ {
			v := c.Inc(p)
			if v != prev+1 {
				return false
			}
			prev = v
		}
		return p.RMWs() == int64(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCrashedFlag(t *testing.T) {
	p := NewDetachedProc(3)
	if p.Crashed() {
		t.Fatal("fresh proc should not be crashed")
	}
	p.MarkCrashed()
	if !p.Crashed() {
		t.Fatal("MarkCrashed not observed")
	}
}

func TestKindCounters(t *testing.T) {
	p := NewDetachedProc(0)
	r := NewIntReg(0)
	c := NewCASReg(0)
	tas := NewHardwareTAS()
	fi := NewFetchInc(0)
	r.Read(p)
	r.Read(p)
	r.Write(p, 1)
	c.CompareAndSwap(p, 0, 1)
	tas.TestAndSet(p)
	fi.Inc(p)
	want := map[OpKind]int64{OpRead: 2, OpWrite: 1, OpCAS: 1, OpTAS: 1, OpFetchInc: 1, OpSwap: 0}
	for k, w := range want {
		if got := p.KindCount(k); got != w {
			t.Fatalf("KindCount(%v) = %d, want %d", k, got, w)
		}
	}
	if p.KindCount(OpKind(99)) != 0 {
		t.Fatal("unknown kind should count 0")
	}
	p.ResetCounters()
	if p.KindCount(OpRead) != 0 {
		t.Fatal("ResetCounters must zero kind counters")
	}
}

// TestResetAccounting: over many Env.Resets that mix idle and busy
// processes, zero and nonzero kinds, and crashed and live processes, the
// cumulative census equals the total of all accesses, and every reset
// leaves each per-process counter at zero and no process crashed.
func TestResetAccounting(t *testing.T) {
	const n = 4
	e := NewEnv(n)
	rng := rand.New(rand.NewSource(1))
	var wantSteps, wantRMWs int64
	var wantKinds [6]int64
	for round := 0; round < 500; round++ {
		for i := 0; i < n; i++ {
			p := e.Proc(i)
			if rng.Intn(3) == 0 {
				continue // idle this round
			}
			// Each busy process draws from a random subset of the kinds.
			kinds := rng.Intn(1 << len(wantKinds))
			for a := rng.Intn(8); a > 0; a-- {
				k := OpKind(rng.Intn(len(wantKinds)))
				if kinds&(1<<k) == 0 {
					continue
				}
				p.account(k)
				wantSteps++
				wantKinds[k]++
				if k.IsRMW() {
					wantRMWs++
				}
			}
			if rng.Intn(4) == 0 {
				p.MarkCrashed()
			}
		}
		e.Reset()
		steps, rmws, kinds := e.CumulativeCounts()
		if steps != wantSteps || rmws != wantRMWs || kinds != wantKinds {
			t.Fatalf("round %d: census steps=%d rmws=%d kinds=%v, want %d %d %v",
				round, steps, rmws, kinds, wantSteps, wantRMWs, wantKinds)
		}
		for i := 0; i < n; i++ {
			p := e.Proc(i)
			if p.Steps() != 0 || p.RMWs() != 0 || p.Crashed() {
				t.Fatalf("round %d: proc %d after reset: steps=%d rmws=%d crashed=%v",
					round, i, p.Steps(), p.RMWs(), p.Crashed())
			}
			for k := OpRead; k <= OpSwap; k++ {
				if c := p.KindCount(k); c != 0 {
					t.Fatalf("round %d: proc %d kind %v = %d after reset", round, i, k, c)
				}
			}
		}
	}
	if wantSteps == 0 || wantRMWs == 0 {
		t.Fatal("no accesses generated")
	}
}

func TestGetOrPutAgreement(t *testing.T) {
	p := NewDetachedProc(0)
	a := NewGrowArray[int](func(i int) *int { panic("mk must not be called") })
	v1, v2 := 10, 20
	got := a.GetOrPut(p, 7, &v1)
	if *got != 10 {
		t.Fatalf("first GetOrPut = %d", *got)
	}
	got = a.GetOrPut(p, 7, &v2)
	if *got != 10 {
		t.Fatalf("second GetOrPut must observe the winner: %d", *got)
	}
	if got := a.Peek(p, 7); got == nil || *got != 10 {
		t.Fatalf("Peek after GetOrPut = %v", got)
	}
}

func TestGetOrPutBoundsPanic(t *testing.T) {
	p := NewDetachedProc(0)
	a := NewGrowArray[int](func(i int) *int { v := i; return &v })
	v := 1
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.GetOrPut(p, -1, &v)
}

func TestEnvResetRestoresRegisteredState(t *testing.T) {
	env := NewEnv(2)
	r := NewIntReg(7)
	b := NewBoolReg(false)
	c := NewCASReg(1)
	f := NewFetchInc(3)
	tas := NewHardwareTAS()
	arr := NewRegArray(2, 5)
	env.Register(r, b, c, f, tas, arr)
	if env.Registered() != 6 {
		t.Fatalf("registered = %d", env.Registered())
	}

	p := env.Proc(0)
	r.Write(p, 99)
	b.Write(p, true)
	c.CompareAndSwap(p, 1, 42)
	f.Inc(p)
	tas.TestAndSet(p)
	arr.Write(p, 1, -1)
	env.Proc(1).MarkCrashed()

	env.Reset()
	if got := r.Read(p); got != 7 {
		t.Fatalf("IntReg after reset = %d, want 7", got)
	}
	if b.Read(p) {
		t.Fatal("BoolReg after reset should be false")
	}
	if got := c.Read(p); got != 1 {
		t.Fatalf("CASReg after reset = %d, want 1", got)
	}
	if got := f.Read(p); got != 3 {
		t.Fatalf("FetchInc after reset = %d, want 3", got)
	}
	if got := tas.Read(p); got != 0 {
		t.Fatalf("HardwareTAS after reset = %d, want 0", got)
	}
	if got := arr.Read(p, 1); got != 5 {
		t.Fatalf("RegArray[1] after reset = %d, want 5", got)
	}
	if env.Proc(1).Crashed() {
		t.Fatal("crash flag should clear on reset")
	}
	if env.TotalSteps() != 6 {
		// The six post-reset reads above are the only accounted steps.
		t.Fatalf("steps after reset + 6 reads = %d", env.TotalSteps())
	}
}

func TestEnvResetPointerObjects(t *testing.T) {
	env := NewEnv(1)
	p := env.Proc(0)
	init := int64(11)
	reg := NewReg[int64](&init)
	cell := NewCASCell[int64]()
	ga := NewGrowArray[int64](func(i int) *int64 { v := int64(i * 10); return &v })
	env.Register(reg, cell, ga)

	v := int64(5)
	reg.Write(p, &v)
	cell.PutIfEmpty(p, &v)
	if got := ga.Get(p, 3); *got != 30 {
		t.Fatalf("slot 3 = %d", *got)
	}

	env.Reset()
	if got := reg.Read(p); got != &init {
		t.Fatal("Reg should revert to its initial pointer")
	}
	if cell.Read(p) != nil {
		t.Fatal("CASCell should revert to empty")
	}
	if got := ga.Peek(p, 3); got != nil {
		t.Fatal("GrowArray slots should be discarded on reset")
	}
	if got := ga.Get(p, 3); *got != 30 {
		t.Fatalf("re-created slot 3 = %d", *got)
	}
}

func TestFingerprintDistinguishesStatesAndIsStable(t *testing.T) {
	build := func() (*Env, *IntReg, *BoolReg) {
		env := NewEnv(1)
		r := NewIntReg(0)
		b := NewBoolReg(false)
		env.Register(r, b)
		return env, r, b
	}
	env1, r1, b1 := build()
	env2, r2, b2 := build()

	fp1, ok := env1.Fingerprint()
	if !ok {
		t.Fatal("register-only env must be fingerprintable")
	}
	fp2, _ := env2.Fingerprint()
	if fp1 != fp2 {
		t.Fatal("equally constructed envs must hash equally")
	}

	p1, p2 := env1.Proc(0), env2.Proc(0)
	r1.Write(p1, 9)
	if fp, _ := env1.Fingerprint(); fp == fp2 {
		t.Fatal("fingerprint must change with register state")
	}
	r2.Write(p2, 9)
	b1.Write(p1, true)
	b2.Write(p2, true)
	g1, _ := env1.Fingerprint()
	g2, _ := env2.Fingerprint()
	if g1 != g2 {
		t.Fatal("equal states must hash equally")
	}

	env1.Reset()
	if fp, _ := env1.Fingerprint(); fp != fp1 {
		t.Fatal("reset must restore the initial fingerprint")
	}
}

func TestFingerprintRefusals(t *testing.T) {
	env := NewEnv(1)
	if _, ok := env.Fingerprint(); ok {
		t.Fatal("an env with no registered objects must refuse to fingerprint")
	}
	env.Register(NewIntReg(0))
	if _, ok := env.Fingerprint(); !ok {
		t.Fatal("register-only env must fingerprint")
	}
	env.Register(NewCASCell[int64]())
	if _, ok := env.Fingerprint(); ok {
		t.Fatal("a pointer-valued cell must make the env unfingerprintable")
	}

	env2 := NewEnv(1)
	env2.Register(NewGrowArray[int64](func(int) *int64 { return new(int64) }))
	if _, ok := env2.Fingerprint(); ok {
		t.Fatal("a grow array must make the env unfingerprintable")
	}
}

// countingInstr is a deterministic Instr sink for tests: plain counters per
// (proc, kind), no atomics — the tests below drive processes sequentially.
type countingInstr struct {
	accesses map[int]map[OpKind]int
	fails    map[int]map[OpKind]int
}

func newCountingInstr() *countingInstr {
	return &countingInstr{
		accesses: map[int]map[OpKind]int{},
		fails:    map[int]map[OpKind]int{},
	}
}

func bump(m map[int]map[OpKind]int, proc int, kind OpKind) {
	if m[proc] == nil {
		m[proc] = map[OpKind]int{}
	}
	m[proc][kind]++
}

func (c *countingInstr) Access(proc int, kind OpKind)  { bump(c.accesses, proc, kind) }
func (c *countingInstr) RMWFail(proc int, kind OpKind) { bump(c.fails, proc, kind) }

// TestInstrAccessAndFailAccounting drives every primitive's win and lose
// branch sequentially and checks the Instr sink saw exactly the accesses
// the step counters saw, plus one RMWFail per losing RMW.
func TestInstrAccessAndFailAccounting(t *testing.T) {
	e := NewEnv(2)
	in := newCountingInstr()
	e.SetInstr(in)
	p0, p1 := e.Proc(0), e.Proc(1)

	// CASReg: one winning CAS, one losing CAS, a read and a write.
	r := NewCASReg(0)
	if !r.CompareAndSwap(p0, 0, 1) {
		t.Fatal("first CAS should win")
	}
	if r.CompareAndSwap(p1, 0, 2) {
		t.Fatal("second CAS should lose")
	}
	r.Read(p0)
	r.Write(p0, 7)

	// HardwareTAS: winner then loser.
	tas := NewHardwareTAS()
	if tas.TestAndSet(p0) != 0 {
		t.Fatal("first TAS should win")
	}
	if tas.TestAndSet(p1) != 1 {
		t.Fatal("second TAS should lose")
	}

	// CASCell: winner then loser.
	cell := NewCASCell[int]()
	v1, v2 := 1, 2
	if _, won := cell.PutIfEmpty(p0, &v1); !won {
		t.Fatal("first PutIfEmpty should win")
	}
	if _, won := cell.PutIfEmpty(p1, &v2); won {
		t.Fatal("second PutIfEmpty should lose")
	}

	// FetchInc never loses.
	ctr := NewFetchInc(0)
	ctr.Inc(p0)
	ctr.Inc(p1)

	wantAccess := map[int]map[OpKind]int{
		0: {OpCAS: 2, OpRead: 1, OpWrite: 1, OpTAS: 1, OpFetchInc: 1},
		1: {OpCAS: 2, OpTAS: 1, OpFetchInc: 1},
	}
	wantFail := map[int]map[OpKind]int{
		1: {OpCAS: 2, OpTAS: 1},
	}
	for proc, kinds := range wantAccess {
		for k, n := range kinds {
			if got := in.accesses[proc][k]; got != n {
				t.Errorf("proc %d %v accesses = %d, want %d", proc, k, got, n)
			}
		}
	}
	for proc := 0; proc < 2; proc++ {
		for k, n := range wantFail[proc] {
			if got := in.fails[proc][k]; got != n {
				t.Errorf("proc %d %v fails = %d, want %d", proc, k, got, n)
			}
		}
	}
	if len(in.fails[0]) != 0 {
		t.Errorf("proc 0 lost no races but recorded fails: %v", in.fails[0])
	}
	// Every Access mirrored a step: totals must agree with the step counters.
	var seen int
	for _, kinds := range in.accesses {
		for _, n := range kinds {
			seen += n
		}
	}
	if int64(seen) != e.TotalSteps() {
		t.Errorf("instr saw %d accesses, step counters saw %d", seen, e.TotalSteps())
	}
}

// TestInstrGrowArray checks the GrowArray access paths mirror into the
// sink. (Its CAS-losing branch needs a real race to trigger; the stress
// tier exercises it, and putLive/publish share the rmwFail call pattern
// asserted on the scalar primitives above.)
func TestInstrGrowArray(t *testing.T) {
	e := NewEnv(2)
	in := newCountingInstr()
	e.SetInstr(in)
	p0, p1 := e.Proc(0), e.Proc(1)

	a := NewGrowArray[int](func(i int) *int { v := i; return &v })
	a.Get(p0, 3) // read step + publishing CAS step
	v := 99
	if got := a.GetOrPut(p1, 3, &v); got == &v {
		t.Fatal("GetOrPut on a published slot should adopt the winner")
	}
	if in.accesses[0][OpRead] != 1 || in.accesses[0][OpCAS] != 1 {
		t.Errorf("p0 Get accesses = %v, want one read and one CAS", in.accesses[0])
	}
	// p1's GetOrPut found the slot taken on its read step: no CAS issued.
	if in.accesses[1][OpRead] != 1 || in.accesses[1][OpCAS] != 0 {
		t.Errorf("p1 GetOrPut accesses = %v, want one read and no CAS", in.accesses[1])
	}
	if len(in.fails[0]) != 0 || len(in.fails[1]) != 0 {
		t.Errorf("sequential driving recorded fails: %v %v", in.fails[0], in.fails[1])
	}
}

// TestInstrRemoved checks SetInstr(nil) detaches the sink.
func TestInstrRemoved(t *testing.T) {
	e := NewEnv(1)
	in := newCountingInstr()
	e.SetInstr(in)
	p := e.Proc(0)
	r := NewCASReg(0)
	r.Read(p)
	e.SetInstr(nil)
	r.Read(p)
	if got := in.accesses[0][OpRead]; got != 1 {
		t.Fatalf("after SetInstr(nil) the sink still saw accesses: %d", got)
	}
}
