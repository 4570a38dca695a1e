package main

// Table-driven flag validation over the shared internal/cliflags core:
// every tascheck invocation resolves to one run path, and every
// path-restricted flag declares — in one table — the paths it applies to.
// See the cliflags package comment for the semantics (value-based
// detection, deterministic first-violation rejection, exit 2).

import (
	"fmt"
	"time"

	"repro/internal/cliflags"
	"repro/internal/engine"
	"repro/internal/randexp"
)

// The flag defaults, shared by the flag declarations in main and the
// changed-from-default detection here.
const (
	defScenario = "a1"
	defMax      = 2000000
	defSamples  = 3000
	defSeed     = int64(1)
	defSampler  = "random"
	defWorkers  = 8
	defPrune    = "dpor"
)

// runPath classifies an invocation by what it runs.
type runPath int

const (
	// pathList prints the registry and runs nothing.
	pathList runPath = iota
	// pathSweep is -scenario all: the registry-wide parallel sweep.
	pathSweep
	// pathSampled is a single scenario with n > -exhaustive-n.
	pathSampled
	// pathExhaustive is a single-scenario walk under -prune sleep or none.
	pathExhaustive
	// pathExhaustiveDPOR is a single-scenario walk under -prune dpor, which
	// additionally excludes the flags source-DPOR cannot honour.
	pathExhaustiveDPOR
	numPaths
)

// String names the path for tests and diagnostics.
func (p runPath) String() string {
	switch p {
	case pathList:
		return "list"
	case pathSweep:
		return "sweep"
	case pathSampled:
		return "sampled"
	case pathExhaustive:
		return "exhaustive"
	case pathExhaustiveDPOR:
		return "exhaustive-dpor"
	}
	return fmt.Sprintf("runPath(%d)", int(p))
}

// cliFlags holds every parsed path-restricted flag value.
type cliFlags struct {
	sampler    string
	pctDepth   int
	rates      string
	saturation int
	maxExecs   int
	samples    int
	seed       int64
	prune      engine.PruneMode
	cache      bool
	ckptOut    string
	ckptIn     string
	timeBudget time.Duration
	failFast   bool
	jsonOut    bool
	progress   time.Duration
	events     string
	debugAddr  string
	traceOut   string
}

// flagRule is the shared rule type instantiated for this binary.
type flagRule = cliflags.Rule[*cliFlags, runPath]

// on builds an allowed-path set. pathList is implied for the exploration
// knobs a bare -list invocation has always silently ignored; flags that
// demand output (-json and the observability sinks) opt out of it
// explicitly.
func on(paths ...runPath) []bool {
	return cliflags.On(int(numPaths), paths...)
}

// The dpor-specific hint preserved from the pre-table validation.
const dporContext = "source-DPOR exploration; pass -prune sleep (or none) to use these"

// listContext is the -list rejection wording for the output flags.
const listContext = "-list (it prints the registry and runs nothing)"

// flagRules is THE flag-applicability table. Order is the check order, so
// rejections are deterministic when several inapplicable flags are set.
func flagRules() []flagRule {
	dporHint := map[runPath]string{pathExhaustiveDPOR: dporContext}
	return []flagRule{
		{Name: "-sampler", Set: func(f *cliFlags) bool { return f.sampler != defSampler },
			Allowed: on(pathList, pathSampled)},
		{Name: "-pct-depth", Set: func(f *cliFlags) bool { return f.pctDepth != randexp.DefaultPCTDepth },
			Allowed: on(pathList, pathSampled)},
		{Name: "-rates", Set: func(f *cliFlags) bool { return f.rates != "" },
			Allowed: on(pathList, pathSampled)},
		{Name: "-saturation", Set: func(f *cliFlags) bool { return f.saturation != 0 },
			Allowed: on(pathList, pathSampled)},
		{Name: "-max", Set: func(f *cliFlags) bool { return f.maxExecs != defMax },
			Allowed: on(pathList, pathSweep, pathExhaustive, pathExhaustiveDPOR)},
		{Name: "-samples", Set: func(f *cliFlags) bool { return f.samples != defSamples },
			Allowed: on(pathList, pathSweep, pathSampled)},
		{Name: "-seed", Set: func(f *cliFlags) bool { return f.seed != defSeed },
			Allowed: on(pathList, pathSweep, pathSampled)},
		{Name: "-prune", Set: func(f *cliFlags) bool { return f.prune != engine.PruneSourceDPOR },
			Allowed: on(pathList, pathExhaustive, pathExhaustiveDPOR)},
		{Name: "-cache", Set: func(f *cliFlags) bool { return f.cache },
			Allowed: on(pathList, pathExhaustive), Context: dporHint},
		{Name: "-checkpoint-out", Set: func(f *cliFlags) bool { return f.ckptOut != "" },
			Allowed: on(pathList, pathExhaustive), Context: dporHint},
		{Name: "-checkpoint-in", Set: func(f *cliFlags) bool { return f.ckptIn != "" },
			Allowed: on(pathList, pathExhaustive), Context: dporHint},
		{Name: "-timebudget", Set: func(f *cliFlags) bool { return f.timeBudget != 0 },
			Allowed: on(pathList, pathExhaustive, pathExhaustiveDPOR)},
		{Name: "-failfast", Set: func(f *cliFlags) bool { return f.failFast },
			Allowed: on(pathList, pathExhaustive, pathExhaustiveDPOR)},
		{Name: "-json", Set: func(f *cliFlags) bool { return f.jsonOut },
			Allowed: on(pathSampled, pathExhaustive, pathExhaustiveDPOR),
			Context: map[runPath]string{pathList: "-list (it is a single-run result object)"}},
		{Name: "-progress", Set: func(f *cliFlags) bool { return f.progress != 0 },
			Allowed: on(pathSweep, pathSampled, pathExhaustive, pathExhaustiveDPOR)},
		{Name: "-events", Set: func(f *cliFlags) bool { return f.events != "" },
			Allowed: on(pathSweep, pathSampled, pathExhaustive, pathExhaustiveDPOR)},
		{Name: "-debug-addr", Set: func(f *cliFlags) bool { return f.debugAddr != "" },
			Allowed: on(pathSweep, pathSampled, pathExhaustive, pathExhaustiveDPOR)},
		{Name: "-trace-out", Set: func(f *cliFlags) bool { return f.traceOut != "" },
			Allowed: on(pathSampled, pathExhaustive, pathExhaustiveDPOR),
			Context: map[runPath]string{pathSweep: "a scenario sweep (its failures are expected report rows, not one canonical schedule)"}},
	}
}

// pathContexts builds each path's default rejection wording, preserving the
// pre-table messages verbatim. procs and exhaustiveN feed the dynamic
// hints of the sampled and exhaustive contexts.
func pathContexts(procs, exhaustiveN int) map[runPath]string {
	exhaustive := fmt.Sprintf("exhaustive exploration; raise -n above -exhaustive-n %d", exhaustiveN)
	return map[runPath]string{
		pathList:           listContext,
		pathSweep:          "a scenario sweep (sweeps always run source-DPOR on one engine worker per scenario and sample uniformly)",
		pathSampled:        fmt.Sprintf("sampled exploration; raise -exhaustive-n to at least %d or lower -n", procs),
		pathExhaustive:     exhaustive,
		pathExhaustiveDPOR: exhaustive,
	}
}

// validateFlags checks every table rule against the resolved path and
// returns the first violation as the usage error main prints, or nil.
func validateFlags(f *cliFlags, path runPath, contexts map[runPath]string) error {
	return cliflags.Validate(f, path, flagRules(), contexts)
}
