package linearize

// The front door: one Checker per oracle shape, through which the model
// tier's per-execution checks, the stress tier's online rounds and
// CheckObjects all pass.

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/spec"
	"repro/internal/trace"
)

// ErrUnknownModule is the contract error of an operation whose Module
// label names no object of a multi-object Checker (or CheckObjects call):
// the harness is miswired, the history is not wrong. Match it with
// errors.Is.
var ErrUnknownModule = errors.New("unknown module")

// Checker judges histories of one oracle shape: a single sequential type,
// or a module→type map. It is built once per shape and owns every
// decision between a recorded history and a verdict:
//
//   - Theorem 3's projection: Check and Push turn an aborted operation, in
//     the caller's slice, into a pending invocation;
//   - routing: under a module map each operation goes to the object its
//     Module label names (any other label is ErrUnknownModule); under a
//     single type labels are ignored;
//   - the checker: the closed form for a one-shot test-and-set history of
//     a single TAS type, and otherwise the JIT search on each object's
//     projection, concurrently from parallelMinOps operations on;
//   - rounds: Barrier closes every object's instance, and an object whose
//     round failed starts the next round clean, so later rounds are still
//     judged.
//
// A verdict failure reads "not linearizable (<type>): <reason>" under a
// single type and "not linearizable (composed): object "<module>"
// (<type>): <reason>" under a module map, from either side.
//
// Check only reads the Checker, so one Checker serves every worker of a
// model-checking run. Push, Barrier and Stats are the streaming side, for
// one goroutine at a time.
type Checker struct {
	mods  []string    // sorted module names; nil under a single type
	types []spec.Type // module mods[j]'s type, or the single type
	name  string      // the single type's name, or "composed"
	cfg   JITConfig

	// The streaming side: one stream per object.
	streams []*Stream
	last    int // the object of the last operation pushed
}

// NewChecker returns the Checker of objects or, when objects is nil, of
// the single type t. cfg sets the JIT checker's budgets; no witness is
// tracked, since none is returned. Its streams are allocated here, by the
// goroutine that builds it, before any round is fed: created lazily by the
// online stress tier's checker goroutine instead, they cost that tier's
// tasfai runs about a tenth of their throughput (measured; the layout
// effect behind it is not pinned down).
func NewChecker(t spec.Type, objects map[string]spec.Type, cfg JITConfig) *Checker {
	c := newChecker(t, objects, cfg)
	for _, ty := range c.types {
		c.streams = append(c.streams, NewStream(ty, c.cfg))
	}
	return c
}

// newChecker is NewChecker without the streaming side: all a batch check
// needs.
func newChecker(t spec.Type, objects map[string]spec.Type, cfg JITConfig) *Checker {
	cfg.Witness = false
	if objects == nil && t != nil {
		return &Checker{types: []spec.Type{t}, name: t.Name(), cfg: cfg}
	}
	c := &Checker{mods: slices.AppendSeq(make([]string, 0, len(objects)), maps.Keys(objects)), name: "composed", cfg: cfg}
	slices.Sort(c.mods)
	for _, m := range c.mods {
		c.types = append(c.types, objects[m])
	}
	return c
}

// String names the shape: the type's name, or module=type pairs in module
// order joined by '+'.
func (c *Checker) String() string {
	if c.mods == nil {
		return c.name
	}
	parts := make([]string, len(c.mods))
	for j, m := range c.mods {
		parts[j] = m + "=" + c.types[j].Name()
	}
	return strings.Join(parts, "+")
}

// project is Theorem 3's projection of one operation: an aborted operation
// becomes a pending invocation.
func project(op *trace.Op) {
	if op.Aborted {
		op.Aborted, op.Pending, op.Ret = false, true, 0
	}
}

// object resolves a Module label to its object, trying hint, the previous
// answer, first: labels come in runs, or from a handful of objects.
func (c *Checker) object(m string, hint int) (int, bool) {
	if c.mods == nil || hint < len(c.mods) && c.mods[hint] == m {
		return hint, true
	}
	j := slices.Index(c.mods, m)
	return j, j >= 0
}

// unknownModule is ErrUnknownModule for op.
func unknownModule(op *trace.Op) error {
	return fmt.Errorf("linearize: operation %v labeled with %w %q", op.Req, ErrUnknownModule, op.Module)
}

// reason names object j in a failure reason, under a module map.
func (c *Checker) reason(j int, r string) string {
	if c.mods == nil {
		return r
	}
	return fmt.Sprintf("object %q (%s): %s", c.mods[j], c.types[j].Name(), r)
}

// Check judges ops, one complete history, after projecting its aborted
// operations in place. The Result carries the verdict, with the failure
// text as Reason; the error is a contract error (an unknown module, a
// budget overrun), never a verdict. Stats is the JIT telemetry folded over
// the objects checked; the closed form reports Ops alone.
func (c *Checker) Check(ops []trace.Op) (Result, Stats, error) {
	for i := range ops {
		project(&ops[i])
	}
	r, st, err := c.check(ops)
	if err == nil && !r.Ok {
		r.Reason = "not linearizable (" + c.name + "): " + r.Reason
	}
	return r, st, err
}

// onlyTAS reports whether every operation of ops is a test-and-set.
func onlyTAS(ops []trace.Op) bool {
	for i := range ops {
		if ops[i].Req.Op != spec.OpTAS {
			return false
		}
	}
	return true
}

// parallelMinOps is the history size from which Check and CheckObjects
// check objects on their own goroutines. Chosen by measurement on the
// 2-core reference box: a tas+fai history of 8192 operations verifies in
// about 3 ms either way (waking the second core costs what it saves), one
// of 16384 in 5.5 ms instead of 7.0; the model-checking tier calls in with
// a dozen operations once per explored execution.
const parallelMinOps = 1 << 13

// object is one module's share of a batch check.
type object struct {
	t      spec.Type
	idx    []int32 // positions of its operations in the history
	sorted bool    // its operations are in invocation order as given
	res    Result
	stats  Stats
	err    error
}

// check is the batch side without the projection: ops is only read. A
// one-shot test-and-set history of a single TAS type takes the
// allocation-free closed form, whose 0 response a reset would pass off as
// a second win. Everything else is checked per object: each gets an index
// of its operations, not a copy, and on a history of parallelMinOps
// operations or more the objects are checked concurrently, at most
// GOMAXPROCS at a time. By Herlihy–Wing locality the projections are
// independent and the composition linearizes iff each does. What is
// returned does not depend on which finishes first: it is assembled
// afterwards in module order — stats folded up to and including the first
// object that failed or erred, that object's verdict returned — exactly
// what checking them one after the other returns.
func (c *Checker) check(ops []trace.Op) (Result, Stats, error) {
	if c.mods == nil && c.types[0] == (spec.TASType{}) && onlyTAS(ops) {
		r, _, err := checkTAS(ops)
		return r, Stats{Ops: int64(len(ops))}, err
	}
	objs := make([]object, len(c.types))
	if err := c.partition(ops, objs); err != nil {
		return Result{}, Stats{}, err
	}

	// firstBad is the least object index known to have failed or erred;
	// nothing after it is folded, so nothing after it needs finishing.
	var firstBad atomic.Int32
	firstBad.Store(int32(len(objs)))
	cfg := c.cfg
	check := func(j int) {
		o := &objs[j]
		o.res, o.stats, o.err = checkProjection(o.t, ops, o.idx, o.sorted, cfg, func() bool { return firstBad.Load() < int32(j) })
		for failed := o.err != nil || !o.res.Ok; failed; {
			if bad := firstBad.Load(); int32(j) >= bad || firstBad.CompareAndSwap(bad, int32(j)) {
				break
			}
		}
	}
	if workers := min(len(objs), runtime.GOMAXPROCS(0)); workers < 2 || len(ops) < parallelMinOps {
		for j := 0; j < len(objs) && int32(j) <= firstBad.Load(); j++ {
			check(j)
		}
	} else {
		var wg sync.WaitGroup
		var claimed atomic.Int32
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					j := int(claimed.Add(1)) - 1
					if j >= len(objs) || int32(j) > firstBad.Load() {
						return
					}
					check(j)
				}
			}()
		}
		wg.Wait()
	}

	// Every object up to and including firstBad ran to completion.
	var stats Stats
	for j := range objs {
		o := &objs[j]
		stats.Fold(o.stats)
		if o.err != nil {
			if c.mods != nil {
				o.err = fmt.Errorf("object %q: %w", c.mods[j], o.err)
			}
			return Result{}, stats, o.err
		}
		if !o.res.Ok {
			o.res.Reason = c.reason(j, o.res.Reason)
			return o.res, stats, nil
		}
	}
	return Result{Ok: true}, stats, nil
}

// partition deals ops out to objs by Module label (all to the one object
// of a single type). One pass over the history resolves every label,
// counts each object's operations and notes whether they come in
// invocation order; the second, over the labels alone, deals the positions
// out into one exact-size index array, a sub-slice per object.
func (c *Checker) partition(ops []trace.Op, objs []object) error {
	for j := range objs {
		objs[j] = object{t: c.types[j], sorted: true}
	}
	both := make([]int32, 2*len(ops))
	label, idx := both[:len(ops)], both[len(ops):]
	counts, lastInv := make([]int, len(objs)), make([]int64, len(objs))
	j := 0
	for i := range ops {
		var ok bool
		if j, ok = c.object(ops[i].Module, j); !ok {
			return unknownModule(&ops[i])
		}
		label[i] = int32(j)
		if counts[j] > 0 && ops[i].Inv < lastInv[j] {
			objs[j].sorted = false
		}
		counts[j]++
		lastInv[j] = ops[i].Inv
	}
	for j := range objs {
		objs[j].idx = idx[:0:counts[j]]
		idx = idx[counts[j]:]
	}
	for i, j := range label {
		objs[j].idx = append(objs[j].idx, int32(i))
	}
	return nil
}

// CheckObjects checks a composed history object by object: ops are
// partitioned by their Module label and each projection is checked against
// its own sequential type, exactly as a Checker of objects does, except
// that ops is only read: an aborted operation is a contract error, as for
// CheckJIT. The Result of the first failing object in module order is
// returned with that object named; no witness is tracked.
func CheckObjects(objects map[string]spec.Type, ops []trace.Op, cfg JITConfig) (Result, Stats, error) {
	return newChecker(nil, objects, cfg).check(ops)
}

// Push feeds the next operation of the current round to its object's
// stream, after projecting it in place. Each object's operations must
// arrive in invocation order. The error is a contract error (an unknown
// module, or the stream's own); the verdict waits for Barrier.
func (c *Checker) Push(op *trace.Op) error {
	project(op)
	j, ok := c.object(op.Module, c.last)
	if !ok {
		return unknownModule(op)
	}
	c.last = j
	return c.streams[j].push(op)
}

// Barrier closes the round: every object's instance is verified and its
// stream restarted from the type's starting state. It returns how many
// objects' rounds do not linearize and the failure text of the first of
// them. Their failures are cleared with the instance, so one bad round
// does not mask later ones.
func (c *Checker) Barrier() (failed int, first string, err error) {
	for j, s := range c.streams {
		if err := s.Barrier(); err != nil {
			return failed, first, err
		}
		if s.failed != nil {
			if failed++; failed == 1 {
				first = "not linearizable (" + c.name + "): " + c.reason(j, s.failed.Reason)
			}
			s.failed = nil
		}
	}
	return failed, first, nil
}

// Stats is the streaming side's telemetry, folded over its objects.
func (c *Checker) Stats() Stats {
	var st Stats
	for _, s := range c.streams {
		st.Fold(s.Stats())
	}
	return st
}
