package main

// Table-driven flag validation over the shared internal/cliflags core,
// mirroring tascheck's contract: one resolved run path per invocation,
// value-based changed-from-default detection, first violation reported as
// a usage error (exit 2). stresscheck has two paths — the listing, which
// runs nothing, and the stress run itself — so the table's job is mostly
// to reject output-demanding flags on -list instead of silently ignoring
// them.

import (
	"fmt"
	"time"

	"repro/internal/cliflags"
)

// The flag defaults, shared by the declarations in main and the
// changed-from-default detection here.
const (
	defG          = 8
	defDuration   = 2 * time.Second
	defCheckEvery = 64
	defSeed       = int64(1)
	defLincheck   = "spot"
)

// runPath classifies an invocation by what it runs.
type runPath int

const (
	// pathList prints the registry and runs nothing.
	pathList runPath = iota
	// pathStress is the stress run (single point or GOMAXPROCS sweep).
	pathStress
	numPaths
)

// String names the path for tests and diagnostics.
func (p runPath) String() string {
	switch p {
	case pathList:
		return "list"
	case pathStress:
		return "stress"
	}
	return fmt.Sprintf("runPath(%d)", int(p))
}

// cliFlags holds every parsed path-restricted flag value.
type cliFlags struct {
	g             int
	duration      time.Duration
	arrival       float64
	procsSweep    string
	checkEvery    int
	maxRounds     int64
	seed          int64
	lincheck      string
	linWindow     int
	linMaxConfigs int
	linMaxOps     int64
	jsonOut       bool
	events        string
	debugAddr     string
}

// flagRule is the shared rule type instantiated for this binary.
type flagRule = cliflags.Rule[*cliFlags, runPath]

func on(paths ...runPath) []bool {
	return cliflags.On(int(numPaths), paths...)
}

// listContext is the -list rejection wording for the output flags.
const listContext = "-list (it prints the registry and runs nothing)"

// flagRules is THE flag-applicability table. The workload knobs follow the
// tascheck tradition of being silently valid on -list; the output sinks
// reject there.
func flagRules() []flagRule {
	return []flagRule{
		{Name: "-g", Set: func(f *cliFlags) bool { return f.g != defG },
			Allowed: on(pathList, pathStress)},
		{Name: "-duration", Set: func(f *cliFlags) bool { return f.duration != defDuration },
			Allowed: on(pathList, pathStress)},
		{Name: "-arrival", Set: func(f *cliFlags) bool { return f.arrival != 0 },
			Allowed: on(pathList, pathStress)},
		{Name: "-procs-sweep", Set: func(f *cliFlags) bool { return f.procsSweep != "" },
			Allowed: on(pathList, pathStress)},
		{Name: "-check-every", Set: func(f *cliFlags) bool { return f.checkEvery != defCheckEvery },
			Allowed: on(pathList, pathStress)},
		{Name: "-max-rounds", Set: func(f *cliFlags) bool { return f.maxRounds != 0 },
			Allowed: on(pathList, pathStress)},
		{Name: "-seed", Set: func(f *cliFlags) bool { return f.seed != defSeed },
			Allowed: on(pathList, pathStress)},
		{Name: "-lincheck", Set: func(f *cliFlags) bool { return f.lincheck != defLincheck },
			Allowed: on(pathList, pathStress)},
		{Name: "-lin-window", Set: func(f *cliFlags) bool { return f.linWindow != 0 },
			Allowed: on(pathList, pathStress)},
		{Name: "-lin-max-configs", Set: func(f *cliFlags) bool { return f.linMaxConfigs != 0 },
			Allowed: on(pathList, pathStress)},
		{Name: "-lin-max-ops", Set: func(f *cliFlags) bool { return f.linMaxOps != 0 },
			Allowed: on(pathList, pathStress)},
		{Name: "-json", Set: func(f *cliFlags) bool { return f.jsonOut },
			Allowed: on(pathStress),
			Context: map[runPath]string{pathList: "-list (it is a stress-result array)"}},
		{Name: "-events", Set: func(f *cliFlags) bool { return f.events != "" },
			Allowed: on(pathStress)},
		{Name: "-debug-addr", Set: func(f *cliFlags) bool { return f.debugAddr != "" },
			Allowed: on(pathStress)},
	}
}

// pathContexts builds each path's default rejection wording.
func pathContexts() map[runPath]string {
	return map[runPath]string{
		pathList:   listContext,
		pathStress: "a stress run",
	}
}

// validateFlags checks every table rule against the resolved path, then
// the cross-flag dependencies the per-flag table cannot express: the JIT
// checker budget knobs only mean something under -lincheck online.
func validateFlags(f *cliFlags, path runPath, contexts map[runPath]string) error {
	if err := cliflags.Validate(f, path, flagRules(), contexts); err != nil {
		return err
	}
	if f.lincheck != "online" {
		for _, dep := range []struct {
			name string
			set  bool
		}{
			{"-lin-window", f.linWindow != 0},
			{"-lin-max-configs", f.linMaxConfigs != 0},
			{"-lin-max-ops", f.linMaxOps != 0},
		} {
			if dep.set {
				return fmt.Errorf("%s requires -lincheck online (got -lincheck %s)", dep.name, f.lincheck)
			}
		}
	}
	return nil
}
