package engine_test

// The registry-wide differential harness. The repo's verdicts rest on
// relations between walks of the registered scenarios: reduced against
// unpruned, obs attached against absent, one worker against four, a reused
// instance against a fresh one. Each cell — a (scenario, n, crashes)
// combination — is built once and walked once per arm into one record per
// walk, and every relation is checked over the records.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sched"
)

const (
	cellBudget    = 30000 // attempts per walk
	replayRecords = 400   // checked executions a record keeps; the budget of known-cut cells and of -short
	sweepBudget   = 2000  // the sweep relation's -max, the CI sweep smoke's
	raceBudget    = 2000  // attempts per walk of the race-scan relation
)

// knownCut names the cells whose trees exceed cellBudget many times over (CI
// pins abstract's and universalqueue's n=2 walks cut at 300000 executions;
// fai n=3 has over 3·10^5 trace classes). Only the 1-worker arms run on a cut
// cell, and their relations read at most replayRecords, so these walk no
// further.
var knownCut = map[string]bool{"abstract n=2": true, "universalqueue n=2": true, "fai n=3": true}

// arm is one way of walking a cell.
type arm struct {
	name    string
	prune   engine.PruneMode
	workers int
	obs     bool
}

// The arms, in walk order: the 1-worker ones first, because a cut 1-worker
// walk ends the cell there (only a 1-worker cut walk is deterministic).
var (
	dporW1    = arm{"dpor w1", engine.PruneSourceDPOR, 1, false}
	dporW1Obs = arm{"dpor w1 obs", engine.PruneSourceDPOR, 1, true}
	dporW4Obs = arm{"dpor w4 obs", engine.PruneSourceDPOR, 4, true}
	sleepW4   = arm{"sleep w4", engine.PruneSleep, 4, false}
	noneW4    = arm{"none w4", engine.PruneNone, 4, false}
	arms      = []arm{dporW1, dporW1Obs, dporW4Obs, sleepW4, noneW4}
)

type cell struct {
	sc      scenario.Scenario
	n       int
	crashes bool
}

func (c cell) String() string {
	if c.crashes {
		return fmt.Sprintf("%s n=%d crashes", c.sc.Name, c.n)
	}
	return fmt.Sprintf("%s n=%d", c.sc.Name, c.n)
}

// registryCells returns every registered scenario at n=2 and the first
// generated scenario of each family (told apart by a phrase of their
// descriptions), each with its crash variant where its checks are
// crash-aware, then a1 and fai at n=3.
func registryCells(t *testing.T) []cell {
	scs := scenario.Registered()
	for _, family := range []string{"tournament tree", "fetch-and-increment", "renaming network"} {
		seed := int64(1)
		for ; !strings.Contains(scenario.Generate(seed).Description, family); seed++ {
			if seed == 20 {
				t.Fatalf("generator seeds 1..20 produce no %s", family)
			}
		}
		scs = append(scs, scenario.Generate(seed))
	}
	var cells []cell
	for _, sc := range scs {
		cells = append(cells, cell{sc, sc.Procs(2), false})
		if sc.Params.Crashes {
			cells = append(cells, cell{sc, sc.Procs(2), true})
		}
	}
	for _, name := range []string{"a1", "fai"} {
		sc, err := scenario.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cell{sc, 3, false})
	}
	return cells
}

// checked is one execution a walk checked.
type checked struct {
	schedule []sched.Choice
	fp       memory.Fingerprint
	fpOK     bool
	verdict  string
}

// record is what one walk leaves for the relations.
type record struct {
	arm     arm
	rep     engine.Report
	err     error        // nil or the walk's *engine.CheckError
	checked []checked    // the first replayRecords checked executions
	m       *obs.Metrics // the obs domain the walk fed, nil without obs
	events  int          // the lifecycle events it logged
}

// walk runs h once under a, recording the first replayRecords checked
// executions as the engine sees them: check calls are serialized, and the
// terminal fingerprint is taken before the reset.
func walk(c cell, h engine.Harness, a arm, budget int) (*record, error) {
	r := &record{arm: a}
	var el *obs.EventLog
	var events bytes.Buffer
	if a.obs {
		r.m, el = obs.New(a.workers), obs.NewEventLog(&events)
		r.m.SetEvents(el)
	}
	tapped := func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env, bodies, check, reset := h()
		return env, bodies, func(res *sched.Result) error {
			if len(r.checked) == replayRecords {
				return check(res)
			}
			fp, fpOK := env.Fingerprint()
			err := check(res)
			r.checked = append(r.checked, checked{slices.Clone(res.Schedule), fp, fpOK, fmt.Sprint(err)})
			return err
		}, reset
	}
	var err error
	r.rep, err = engine.Run(tapped, engine.Config{
		Prune: a.prune, Workers: a.workers, MaxExecutions: budget, Crashes: c.crashes, Metrics: r.m,
	})
	if r.err = err; err != nil && !errors.As(err, new(*engine.CheckError)) {
		return nil, fmt.Errorf("%v, %s: engine error: %w", c, a.name, err)
	}
	if r.m == nil {
		return r, nil
	}
	err = el.Close()
	r.events = bytes.Count(events.Bytes(), []byte("\n"))
	return r, err
}

type cellRun struct {
	cell
	h    engine.Harness
	recs map[arm]*record
}

// walkCell builds c once, checks what the build declares, and walks it once
// per arm; if the 1-worker walk is cut, the 4-worker arms are skipped.
func walkCell(c cell, budget int) (*cellRun, error) {
	h, oracle := c.sc.Build(c.n, scenario.Options{Crashes: c.crashes})
	env, bodies, _, reset := h()
	if _, fpOK := env.Fingerprint(); oracle.String() == "" || len(bodies) != c.n || env.N() != c.n ||
		reset == nil || fpOK != c.sc.Params.Fingerprints {
		return nil, fmt.Errorf("%v: built oracle %q, %d bodies over %d procs, reset %v, fingerprints %v (declared %v)",
			c, oracle, len(bodies), env.N(), reset != nil, fpOK, c.sc.Params.Fingerprints)
	}
	if knownCut[c.String()] {
		budget = min(budget, replayRecords)
	}
	cr := &cellRun{cell: c, h: h, recs: map[arm]*record{}}
	for _, a := range arms {
		if a.workers > 1 && cr.recs[dporW1].rep.Partial {
			break
		}
		r, err := walk(c, h, a, budget)
		if err != nil {
			return nil, err
		}
		cr.recs[a] = r
	}
	return cr, nil
}

// relate checks the named relations that apply to the cell's records;
// each error names the cell, relation and arm, and ran lists relation/arm
// pairs.
func (cr *cellRun) relate(relations ...string) (errs []error, ran []string) {
	note := func(relation string, a arm, check func() error) {
		if !slices.Contains(relations, relation) {
			return
		}
		ran = append(ran, relation+"/"+a.name)
		if err := check(); err != nil {
			errs = append(errs, fmt.Errorf("%v: %s relation, %s: %w", cr.cell, relation, a.name, err))
		}
	}
	base := cr.recs[dporW1]
	for _, a := range arms {
		r := cr.recs[a]
		if r == nil {
			break
		}
		note("verdict", a, func() error { return expectedVerdict(cr.sc, r) })
		note("replay", a, func() error { return replays(cr.h, r) })
		if a.obs {
			note("obs", a, func() error { return obsMatchesReport(r) })
		}
		switch {
		case a.prune == engine.PruneSourceDPOR && a != dporW1:
			note("workers", a, func() error { return sameWalk(base, r) })
		case a.prune != engine.PruneSourceDPOR && !r.rep.Partial:
			note("reduction", a, func() error { return sameReduction(base, r) })
		}
	}
	return errs, ran
}

// relateAll reports the named relations over every cell, logging which
// relation/arm pairs each cell ran, and returns those pairs by cell.
func relateAll(t *testing.T, runs []*cellRun, relations ...string) map[*cellRun][]string {
	t.Helper()
	ran := map[*cellRun][]string{}
	for _, cr := range runs {
		errs, pairs := cr.relate(relations...)
		for _, err := range errs {
			t.Error(err)
		}
		t.Logf("%v: %s", cr.cell, strings.Join(pairs, ", "))
		ran[cr] = pairs
	}
	return ran
}

// expectedVerdict: a planted-bug scenario fails, any other passes; a cut
// walk may miss a planted bug.
func expectedVerdict(sc scenario.Scenario, r *record) error {
	if failed := r.err != nil; failed != sc.Params.ExpectFail && (failed || !r.rep.Partial) {
		return fmt.Errorf("walk returned %v, ExpectFail=%v", r.err, sc.Params.ExpectFail)
	}
	return nil
}

// replays re-runs each checked execution of r on a fresh instance through
// the one-shot executor: the same schedule, terminal fingerprint and
// verdict mean the reused instance was reset completely.
func replays(h engine.Harness, r *record) error {
	for _, want := range r.checked {
		env, bodies, check, _ := h()
		res := sched.Run(env, sched.NewReplay(want.schedule), bodies)
		fp, fpOK := env.Fingerprint()
		if got := (checked{res.Schedule, fp, fpOK, fmt.Sprint(check(res))}); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("fresh instance %+v, reused %+v", got, want)
		}
	}
	return nil
}

// sameWalk holds a source-DPOR walk to the bare 1-worker one: the same
// canonical failure (a CheckError's text holds its schedule and cause) and
// deterministic Report fields — at one worker, every field but WallTime.
func sameWalk(base, r *record) error {
	if fmt.Sprint(base.err) != fmt.Sprint(r.err) {
		return fmt.Errorf("canonical failures differ:\n%v\nvs\n%v", base.err, r.err)
	}
	want, got := base.rep, r.rep
	want.WallTime, got.WallTime = 0, 0
	if r.arm.workers > 1 {
		want, got = deterministic(want), deterministic(got)
	}
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("reports differ:\n%+v\nvs\n%+v", want, got)
	}
	return nil
}

// deterministic keeps the fields a completed walk reports at any worker count.
func deterministic(rep engine.Report) engine.Report {
	return engine.Report{
		Executions: rep.Executions, MaxDepth: rep.MaxDepth, Partial: rep.Partial,
		DistinctStates: rep.DistinctStates, FingerprintOK: rep.FingerprintOK, TerminalStates: rep.TerminalStates,
	}
}

// sameReduction holds a completed sleep-set or unpruned walk to the
// source-DPOR one: the same verdict and terminal set, and as many executions
// as sleep sets (one per trace class), no more than the unpruned walk.
func sameReduction(dpor, r *record) error {
	if (dpor.err == nil) != (r.err == nil) {
		return fmt.Errorf("verdicts differ: %v vs %v", dpor.err, r.err)
	}
	if dpor.rep.FingerprintOK != r.rep.FingerprintOK || !reflect.DeepEqual(dpor.rep.TerminalStates, r.rep.TerminalStates) {
		return fmt.Errorf("terminal-state sets differ (%d vs %d states)", len(dpor.rep.TerminalStates), len(r.rep.TerminalStates))
	}
	if (r.arm.prune == engine.PruneSleep && dpor.rep.Executions != r.rep.Executions) ||
		dpor.rep.Executions > r.rep.Executions {
		return fmt.Errorf("dpor completed %d interleavings, %v %d", dpor.rep.Executions, r.arm.prune, r.rep.Executions)
	}
	return nil
}

// obsMatchesReport: obs emitted events and counted every execution; at one
// worker, where all are exact, every counter equals its Report twin, every
// attempt but the root replays, and the depth histogram holds each execution.
func obsMatchesReport(r *record) error {
	if r.events == 0 {
		return errors.New("no lifecycle events emitted")
	}
	m, rep := r.m, r.rep
	for _, tw := range []struct {
		name     string
		obs, rep int64
	}{{"executions", m.Executions.Value(), int64(rep.Executions)}, {"attempts", m.Attempts.Value(), int64(rep.Attempts)},
		{"pruned", m.Pruned.Value(), int64(rep.Pruned)}, {"backtracks", m.Backtracks.Value(), int64(rep.Backtracks)},
		{"cache_hits", m.CacheHits.Value(), int64(rep.CacheHits)}, {"replays", m.Replays.Value(), int64(rep.Replays)}} {
		if tw.obs != tw.rep && (r.arm.workers == 1 || tw.name == "executions") {
			return fmt.Errorf("obs counted %d %s, the report %d", tw.obs, tw.name, tw.rep)
		}
	}
	if r.arm.workers > 1 {
		return nil
	}
	switch depths := m.Snapshot().Depths; {
	case rep.Replays != rep.Attempts-1:
		return fmt.Errorf("%d replays in %d attempts, want every attempt but the root", rep.Replays, rep.Attempts)
	case rep.WallTime <= 0:
		return fmt.Errorf("WallTime not recorded: %v", rep.WallTime)
	case depths.N != rep.Executions || depths.Max != rep.MaxDepth:
		return fmt.Errorf("depth histogram holds %d samples up to %d, the report %d executions up to depth %d",
			depths.N, depths.Max, rep.Executions, rep.MaxDepth)
	}
	return nil
}

// sameSweep compares a rendered sweep with the bare one, naming the row
// where they first differ.
func sameSweep(label, base, got string) error {
	if base == got {
		return nil
	}
	i := 0
	for i < len(base) && i < len(got) && base[i] == got[i] {
		i++
	}
	row, _, _ := strings.Cut(base[strings.LastIndex(base[:i], "\n")+1:], " ")
	return fmt.Errorf("sweep relation, %s: row %s differs:\n%s\nvs\n%s", label, row, base, got)
}

// TestRegistryDifferential walks every cell once per arm, in a subtest named
// after the cell that checks the verdict and replay relations of each arm.
// The relations between arms follow, one subtest each over every walked
// cell: obs (the obs-attached arms against the bare one — the workers and
// obs relations) and reduction, where two thirds of the registry must
// complete dpor against sleep, so a grown budget cannot silently skip
// everything. Then the sweep relation: the sweep renders byte-identically
// bare at one worker and with obs at one and four. -short walks every cell
// within replayRecords and renders no sweep.
func TestRegistryDifferential(t *testing.T) {
	budget := cellBudget
	if testing.Short() {
		budget = replayRecords
	}
	var scs []scenario.Scenario
	var runs []*cellRun
	for _, c := range registryCells(t) {
		if c.n == c.sc.Procs(2) && !c.crashes { // a row of the sweep
			scs = append(scs, c.sc)
		}
		t.Run(c.String(), func(t *testing.T) {
			cr, err := walkCell(c, budget)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, cr)
			relateAll(t, []*cellRun{cr}, "verdict", "replay")
		})
	}
	t.Run("obs", func(t *testing.T) { relateAll(t, runs, "workers", "obs") })
	t.Run("reduction", func(t *testing.T) {
		registered, reduced := len(scenario.Registered()), 0
		for cr, ran := range relateAll(t, runs, "reduction") {
			primary := cr.n == cr.sc.Procs(2) && !cr.crashes && !strings.HasPrefix(cr.sc.Name, scenario.GenPrefix)
			if primary && slices.Contains(ran, "reduction/"+sleepW4.name) {
				reduced++
			}
		}
		if !testing.Short() && reduced < registered*2/3 {
			t.Errorf("only %d of %d registered scenarios complete the reduction relation within %d attempts", reduced, registered, budget)
		}
	})
	if testing.Short() {
		return
	}
	t.Run("sweep", func(t *testing.T) {
		cfg := scenario.SweepConfig{MaxExecutions: sweepBudget, Samples: 200, Seed: 1, Workers: 1}
		baseRows, baseErr := scenario.Sweep(scs, cfg)
		base := scenario.Render(baseRows)
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("bare w1 vs obs w%d", workers)
			var events bytes.Buffer
			el := obs.NewEventLog(&events)
			cfg.Workers, cfg.Metrics = workers, obs.New(workers)
			cfg.Metrics.SetEvents(el)
			rows, err := scenario.Sweep(scs, cfg)
			cerr := el.Close()
			if done := bytes.Count(events.Bytes(), []byte(`"type":"scenario_done"`)); cerr != nil || done != len(scs) ||
				fmt.Sprint(err) != fmt.Sprint(baseErr) {
				t.Errorf("sweep relation, %s: error %v (bare %v), event log %v, %d scenario_done events for %d rows",
					label, err, baseErr, cerr, done, len(scs))
			}
			if err := sameSweep(label, base, scenario.Render(rows)); err != nil {
				t.Error(err)
			}
		}
	})
}

// TestRaceScanMatchesPairScan walks every cell, and composed and tasfai at
// n=3, under one-worker source-DPOR within raceBudget attempts (-short:
// replayRecords), and holds the race analysis to the reference pair scan on
// every analysed trace: the same races, in the same order. At least one race
// must pair a write with an earlier read, so the walks exercise the part of
// the frontier made of the reads since an object's last write.
func TestRaceScanMatchesPairScan(t *testing.T) {
	budget := raceBudget
	if testing.Short() {
		budget = replayRecords
	}
	cells := registryCells(t)
	for _, name := range []string{"composed", "tasfai"} {
		sc, err := scenario.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cell{sc, 3, false})
	}
	readRaces := 0
	for _, c := range cells {
		h, _ := c.sc.Build(c.n, scenario.Options{Crashes: c.crashes})
		rep, rs, err := engine.RunComparingRaceScans(h, engine.Config{
			Prune: engine.PruneSourceDPOR, MaxExecutions: budget, Crashes: c.crashes,
		})
		switch {
		case err != nil && !errors.As(err, new(*engine.CheckError)):
			t.Errorf("%v: engine error: %v", c, err)
		case rs.Diff != nil:
			t.Errorf("%v: race scans differ: %v", c, rs.Diff)
		case rs.Traces != rep.Attempts:
			t.Errorf("%v: %d traces compared in %d attempts", c, rs.Traces, rep.Attempts)
		}
		readRaces += rs.ReadRaces
	}
	if readRaces == 0 {
		t.Error("no race paired a write with an earlier read")
	}
}

// TestRegistryDifferentialCatchesPlantedDefects plants one defect per
// relation and requires the harness to report it, naming the relation and
// the cell.
func TestRegistryDifferentialCatchesPlantedDefects(t *testing.T) {
	// forgetful's reset forgets a register: forgot is not registered with
	// the Env and the harness reset leaves it alone, so each execution on a
	// reused instance starts where the last one left it.
	forgetful := scenario.Scenario{Name: "forgetful", Params: scenario.Params{Fingerprints: true},
		Build: func(n int, _ scenario.Options) (engine.Harness, scenario.Oracle) {
			return func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
				env, kept, forgot := memory.NewEnv(n), memory.NewIntReg(0), memory.NewIntReg(0)
				env.Register(kept)
				body := func(p *memory.Proc) { v := forgot.Read(p); forgot.Write(p, v+1); kept.Write(p, v) }
				return env, slices.Repeat([]func(p *memory.Proc){body}, n), func(*sched.Result) error { return nil }, func() {}
			}, scenario.Oracle{Invariant: "none"}
		}}
	a1, err1 := scenario.Lookup("a1")
	bug, err2 := scenario.Lookup("handoffbug")
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for _, p := range []struct {
		relation string
		sc       scenario.Scenario
		plant    func(recs map[arm]*record)
	}{
		{"replay", forgetful, func(map[arm]*record) {}},
		{"reduction", a1, func(recs map[arm]*record) { recs[noneW4].rep.TerminalStates = recs[noneW4].rep.TerminalStates[1:] }},
		{"workers", bug, func(recs map[arm]*record) {
			ce := *recs[dporW4Obs].err.(*engine.CheckError)
			ce.Schedule = ce.Schedule[1:]
			recs[dporW4Obs].err = &ce
		}},
		{"obs", a1, func(recs map[arm]*record) { recs[dporW1Obs].m.Executions.Inc(0) }},
	} {
		c := cell{p.sc, 2, false}
		cr, err := walkCell(c, cellBudget)
		if err != nil {
			t.Fatal(err)
		}
		p.plant(cr.recs)
		errs, _ := cr.relate(p.relation)
		want := fmt.Sprintf("%v: %s relation", c, p.relation)
		if !slices.ContainsFunc(errs, func(err error) bool { return strings.HasPrefix(err.Error(), want) }) {
			t.Errorf("planted %s defect not reported as %q; got %v", p.relation, want, errs)
		}
	}

	rows, _ := scenario.Sweep([]scenario.Scenario{a1, bug}, scenario.SweepConfig{MaxExecutions: sweepBudget})
	base := scenario.Render(rows)
	i := strings.LastIndex(base, "FAIL(expected)")
	err := sameSweep("planted", base, base[:i]+"f"+base[i+1:])
	if want := "sweep relation, planted: row handoffbug differs"; err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("planted sweep defect not reported as %q; got %v", want, err)
	}
}
