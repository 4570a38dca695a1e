// Package scenario is the layer between the object library and the two
// exploration frontends: a registry of named, checkable workloads.
//
// The paper's central claim is about *safely composable* objects —
// correctness of a composition reduces to linearizability of its
// projection (Theorem 3) — which is a claim quantified over compositions,
// not over one workload. Before this package, the checker could exercise
// exactly three hard-coded compositions; every other harness lived as a
// copy-pasted local builder in a command, a benchmark, or an example. The
// registry turns that fixed set into an open-ended family: every workload
// is a Scenario — a named builder producing an engine.Harness plus the
// Oracle that judges its executions — and new compositions join by
// Register (or are synthesized on demand by the seeded generator, see
// gen.go).
//
// # Contract
//
// Build(n, opts) must return a self-contained harness obeying the
// engine.Harness contract: it registers every shared object with the Env
// and returns a reset that restores all harness-local state (a nil reset is
// rejected by every tier). The harness's check function must enforce
// exactly the returned Oracle. Builders must be
// deterministic: two Build calls with equal arguments produce harnesses
// with identical interleaving trees (the engines rely on this for replay,
// checkpointing and worker-count-independent reports).
//
// # Oracles
//
// An Oracle is either an invariant family (a named predicate the check
// closure evaluates on every execution) or a sequential type handed to the
// linearizability checker: the harness projects its recorded trace onto
// invoke/commit events and requires a linearization, which is the
// executable form of Theorem 3.
package scenario

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/linearize"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/trace"
)

// OracleKind distinguishes the two ways a scenario's executions are judged.
type OracleKind uint8

// The oracle kinds.
const (
	// OracleInvariant judges executions by a named invariant family
	// evaluated inside the harness's check closure.
	OracleInvariant OracleKind = iota
	// OracleLinearize judges executions by linearizability of the recorded
	// invoke/commit projection against a sequential type (Theorem 3).
	OracleLinearize
)

// Oracle describes how a scenario's executions are judged: an invariant
// check, or a sequential specification handed to the linearizability
// checkers.
type Oracle struct {
	Kind OracleKind
	// Type is the sequential type checked by the linearizer when Kind is
	// OracleLinearize and the scenario exercises a single object.
	Type spec.Type
	// Objects, when non-nil, makes the oracle compositional: operations
	// are partitioned by their trace Module label and each projection is
	// checked against its module's type (P-compositionality — the
	// composition is linearizable iff every per-object projection is).
	Objects map[string]spec.Type
	// Invariant names the invariant family when Kind is OracleInvariant.
	Invariant string
}

// String renders the oracle for listings and sweep rows.
func (o Oracle) String() string {
	if o.Kind != OracleLinearize {
		return "invariant:" + o.Invariant
	}
	if o.Objects == nil {
		return "linearize:" + o.Type.Name()
	}
	mods := make([]string, 0, len(o.Objects))
	for m := range o.Objects {
		mods = append(mods, m)
	}
	sort.Strings(mods)
	parts := make([]string, len(mods))
	for i, m := range mods {
		parts[i] = m + "=" + o.Objects[m].Name()
	}
	return "linearize:" + strings.Join(parts, "+")
}

// Check runs a linearize oracle on the invoke/commit projection of ops
// (aborted operations become pending invocations, exactly Theorem 3's
// projection). The projection is applied to ops in place: the slice is the
// caller's scratch (a check closure's reused Recorder.AppendOps buffer), and
// the check runs once per explored execution, so it copies nothing. Only
// the verdict is read. Invariant oracles have no generic check; the
// harness's check closure carries them.
func (o Oracle) Check(ops []trace.Op) error {
	if o.Kind != OracleLinearize {
		return fmt.Errorf("scenario: oracle %s has no trace check", o)
	}
	if o.Type == nil && o.Objects == nil {
		return errors.New("scenario: oracle has neither Type nor Objects")
	}
	for i := range ops {
		if op := &ops[i]; op.Aborted {
			op.Aborted = false
			op.Pending = true
			op.Ret = 0
		}
	}
	lr, err := o.dispatch(ops)
	if err != nil {
		// A contract error (an unknown module label, a budget overrun)
		// means the scenario is miswired, not that the execution is wrong;
		// surface it as its own failure cause.
		return fmt.Errorf("scenario: oracle %s cannot check this trace: %w", o, err)
	}
	if !lr.Ok {
		name := "composed"
		if o.Objects == nil {
			name = o.Type.Name()
		}
		return fmt.Errorf("not linearizable (%s): %s", name, lr.Reason)
	}
	return nil
}

// dispatch picks the checker: per-object projections for a compositional
// oracle, the allocation-free closed form for a one-shot test-and-set
// history (every operation a tas), the JIT checker for everything else —
// other types, and test-and-set histories with resets, whose 0 response
// the closed form would count as a win.
func (o Oracle) dispatch(proj []trace.Op) (linearize.Result, error) {
	if o.Objects != nil {
		lr, _, err := linearize.CheckObjects(o.Objects, proj, linearize.JITConfig{})
		return lr, err
	}
	if _, isTAS := o.Type.(spec.TASType); isTAS && onlyTAS(proj) {
		return linearize.CheckTASVerdict(proj)
	}
	lr, _, err := linearize.CheckJIT(o.Type, proj, linearize.JITConfig{})
	return lr, err
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

// Params carries a scenario's static properties: what process counts make
// sense, which engine features it supports, and how a sweep should read its
// outcome.
type Params struct {
	// MinProcs is the smallest process count the scenario is meaningful at
	// (0 means 2).
	MinProcs int
	// DefaultProcs is the process count used when a caller passes n <= 0
	// (0 means MinProcs).
	DefaultProcs int
	// Crashes reports whether the scenario's checks are crash-aware
	// (Options.Crashes may be set). Scenarios whose invariants assume every
	// process completes leave it false.
	Crashes bool
	// Fingerprints reports whether the built environment registers only
	// exactly-hashable objects, so Env.Fingerprint returns ok and
	// state-caching/coverage signals are available.
	Fingerprints bool
	// ExpectFail marks planted-bug scenarios: a check failure is the
	// expected outcome, and a sweep reports it as such rather than as a
	// regression.
	ExpectFail bool
}

// Options tune a single Build call.
type Options struct {
	// Crashes asks for a crash-aware harness: the check must tolerate
	// processes that the scheduler crashed (only legal when Params.Crashes).
	Crashes bool
}

// Scenario is one named, checkable workload.
type Scenario struct {
	Name        string
	Description string
	Params      Params
	// Build constructs the workload for n processes. It returns the
	// exploration harness and the oracle its check function enforces.
	Build func(n int, opts Options) (engine.Harness, Oracle)
}

// Procs clamps a requested process count to the scenario's range: n <= 0
// selects the default, anything below MinProcs is raised to it.
func (s Scenario) Procs(n int) int {
	min := s.Params.MinProcs
	if min <= 0 {
		min = 2
	}
	if n <= 0 {
		if s.Params.DefaultProcs > 0 {
			return s.Params.DefaultProcs
		}
		return min
	}
	if n < min {
		return min
	}
	return n
}

// GenPrefix is the name prefix of generated scenarios: "gen:<seed>" is
// synthesized by the seeded composition generator rather than looked up in
// the registry.
const GenPrefix = "gen:"

var (
	regMu    sync.Mutex
	registry = map[string]Scenario{}
)

// Register adds a scenario to the registry. Names must be unique and must
// not collide with the generator prefix; violations panic at init time.
func Register(s Scenario) {
	regMu.Lock()
	defer regMu.Unlock()
	if s.Name == "" || strings.HasPrefix(s.Name, GenPrefix) {
		panic(fmt.Sprintf("scenario: invalid name %q", s.Name))
	}
	if s.Build == nil {
		panic(fmt.Sprintf("scenario: %s registered without a builder", s.Name))
	}
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration of %s", s.Name))
	}
	registry[s.Name] = s
}

// Lookup resolves a scenario name: a registered name, or a generated
// "gen:<seed>" scenario synthesized deterministically from the seed.
func Lookup(name string) (Scenario, error) {
	if strings.HasPrefix(name, GenPrefix) {
		seed, err := strconv.ParseInt(strings.TrimPrefix(name, GenPrefix), 10, 64)
		if err != nil {
			return Scenario{}, fmt.Errorf("scenario: bad generator seed in %q (want gen:<integer>)", name)
		}
		return Generate(seed), nil
	}
	regMu.Lock()
	s, ok := registry[name]
	regMu.Unlock()
	if !ok {
		return Scenario{}, fmt.Errorf("scenario: unknown scenario %q", name)
	}
	return s, nil
}

// Registered returns every registered scenario sorted by name — the listing
// and sweep order.
func Registered() []Scenario {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Scenario, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Listing renders the registry (plus the generator family) as the
// name + description + default-oracle table tascheck -list prints and the
// unknown-scenario error path exits with.
func Listing() string {
	var b strings.Builder
	rows := Registered()
	wName, wOracle := len("gen:<seed>"), 0
	oracles := make([]string, len(rows))
	for i, s := range rows {
		_, o := s.Build(s.Procs(0), Options{})
		oracles[i] = o.String()
		if len(s.Name) > wName {
			wName = len(s.Name)
		}
		if len(oracles[i]) > wOracle {
			wOracle = len(oracles[i])
		}
	}
	gen := Generate(1)
	_, genOracle := gen.Build(gen.Procs(0), Options{})
	if len("(per-seed)") > wOracle {
		wOracle = len("(per-seed)")
	}
	fmt.Fprintf(&b, "%-*s  %-*s  %s\n", wName, "scenario", wOracle, "oracle", "description")
	for i, s := range rows {
		fmt.Fprintf(&b, "%-*s  %-*s  %s\n", wName, s.Name, wOracle, oracles[i], s.Description)
	}
	fmt.Fprintf(&b, "%-*s  %-*s  %s\n", wName, "gen:<seed>", wOracle, "(per-seed)",
		"seeded composition generator: derived-object trees assembled from the primitive registry"+
			" (e.g. gen:1 = "+gen.Description+", oracle "+genOracle.String()+")")
	return b.String()
}

// ---------------------------------------------------------------------------
// Shared oracle helpers: the invariant fragments the built-in scenarios
// compose. They were previously copy-pasted across cmd/tascheck,
// internal/bench, package tests and examples; this is now their only home.

// uniqueWinner enforces the at-most-one-winner safety property over the
// committed operations of a TAS trace, and — when exact is set (no crashes:
// every process completes, so wait-freedom forces a decision) — exactly one
// winner.
func uniqueWinner(ops []trace.Op, exact bool) error {
	winners := 0
	for _, op := range ops {
		if op.Committed() && op.Resp == spec.Winner {
			winners++
		}
	}
	if winners > 1 || (exact && winners != 1) {
		return fmt.Errorf("%d winners", winners)
	}
	return nil
}

// survivorsFinished enforces crash-mode liveness: every process the
// scheduler did not crash must have run to completion (wait-freedom of the
// surviving processes).
func survivorsFinished(res *sched.Result) error {
	for i := range res.Finished {
		if !res.Crashed[i] && !res.Finished[i] {
			return fmt.Errorf("survivor %d did not finish", i)
		}
	}
	return nil
}

// hold is one acquire/release interval of a long-lived mutual-exclusion
// scenario, stamped by a harness-local logical clock: acq after the winning
// shared-memory step, pre just before the reset that releases the lock,
// and rel once that reset has returned (0 while the hold is open).
type hold struct {
	acq, pre, rel int64
}

// holdsDisjoint enforces mutual exclusion: no two holds by different
// processes overlap. A hold with rel == 0 is still open (its holder crashed
// before releasing) and conflicts with every later acquisition. Under the
// gate (scheduled) stamps are schedule positions and no other process
// steps between the reset's releasing write and rel, so rel closes a hold
// exactly. The native clock is a shared counter, not ordered with the
// steps: another process can acquire after the releasing write and stamp
// before rel, so there a hold is closed at pre, which lies inside it.
func holdsDisjoint(holds [][]hold, scheduled bool) error {
	var all []struct {
		proc int
		h    hold
	}
	for p, hs := range holds {
		for _, h := range hs {
			if !scheduled && h.rel != 0 {
				h.rel = h.pre
			}
			all = append(all, struct {
				proc int
				h    hold
			}{p, h})
		}
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			a, b := all[i], all[j]
			if a.proc == b.proc {
				continue
			}
			aOpen := a.h.rel == 0
			bOpen := b.h.rel == 0
			overlap := (aOpen || a.h.rel > b.h.acq) && (bOpen || b.h.rel > a.h.acq)
			if overlap {
				return fmt.Errorf("mutual exclusion violated: proc %d held [%d,%d] while proc %d held [%d,%d]",
					a.proc, a.h.acq, a.h.rel, b.proc, b.h.acq, b.h.rel)
			}
		}
	}
	return nil
}
