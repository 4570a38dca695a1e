package main

// Exhaustive validation of the flag-applicability table: every rule is
// exercised on every run path, both set (changed from default) and unset,
// so no (flag, path) combination can silently drift. The setters map is
// the test's own knowledge of how to flip each flag to a non-default
// value; a rule without a setter fails the completeness check.

import (
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/randexp"
)

// defaultFlags mirrors the parsed defaults of a bare invocation: every
// rule's set() must report false on it.
func defaultFlags() *cliFlags {
	return &cliFlags{
		sampler:  defSampler,
		pctDepth: randexp.DefaultPCTDepth,
		maxExecs: defMax,
		samples:  defSamples,
		seed:     defSeed,
		prune:    engine.PruneSourceDPOR,
	}
}

// setters flips each table flag to a non-default value.
var setters = map[string]func(f *cliFlags){
	"-sampler":        func(f *cliFlags) { f.sampler = "pct" },
	"-pct-depth":      func(f *cliFlags) { f.pctDepth = randexp.DefaultPCTDepth + 1 },
	"-rates":          func(f *cliFlags) { f.rates = "1,2" },
	"-saturation":     func(f *cliFlags) { f.saturation = 5 },
	"-max":            func(f *cliFlags) { f.maxExecs = defMax + 1 },
	"-samples":        func(f *cliFlags) { f.samples = defSamples + 1 },
	"-seed":           func(f *cliFlags) { f.seed = defSeed + 1 },
	"-prune":          func(f *cliFlags) { f.prune = engine.PruneSleep },
	"-cache":          func(f *cliFlags) { f.cache = true },
	"-checkpoint-out": func(f *cliFlags) { f.ckptOut = "ckpt.json" },
	"-checkpoint-in":  func(f *cliFlags) { f.ckptIn = "ckpt.json" },
	"-timebudget":     func(f *cliFlags) { f.timeBudget = time.Second },
	"-failfast":       func(f *cliFlags) { f.failFast = true },
	"-json":           func(f *cliFlags) { f.jsonOut = true },
	"-progress":       func(f *cliFlags) { f.progress = time.Second },
	"-events":         func(f *cliFlags) { f.events = "events.jsonl" },
	"-debug-addr":     func(f *cliFlags) { f.debugAddr = "localhost:0" },
	"-trace-out":      func(f *cliFlags) { f.traceOut = "trace.json" },
}

// TestFlagTableEveryCombination enumerates (rule × path): a set flag
// passes exactly on its allowed paths and the rejection names the flag;
// an unset flag passes everywhere.
func TestFlagTableEveryCombination(t *testing.T) {
	contexts := pathContexts(4, 3)
	rules := flagRules()
	if len(rules) != len(setters) {
		t.Fatalf("table has %d rules, test knows %d setters — keep them in sync", len(rules), len(setters))
	}
	for _, r := range rules {
		setter, ok := setters[r.Name]
		if !ok {
			t.Fatalf("no setter for table rule %s", r.Name)
		}
		f := defaultFlags()
		if r.Set(f) {
			t.Fatalf("%s reports set on a default cliFlags", r.Name)
		}
		setter(f)
		if !r.Set(f) {
			t.Fatalf("setter for %s did not flip it off its default", r.Name)
		}
		// Each setter flips exactly one field and each rule reads exactly
		// one, so only the rule under test can fire.
		for path := runPath(0); path < numPaths; path++ {
			err := validateFlags(f, path, contexts)
			if r.Allowed[path] {
				if err != nil {
					t.Errorf("%s on %s: unexpectedly rejected: %v", r.Name, path, err)
				}
				continue
			}
			if err == nil {
				t.Errorf("%s on %s: silently accepted", r.Name, path)
				continue
			}
			if !strings.HasPrefix(err.Error(), r.Name+" does not apply to ") {
				t.Errorf("%s on %s: rejection does not name the flag: %v", r.Name, path, err)
			}
		}
	}
}

// TestFlagDefaultsPassEverywhere: a default cliFlags is valid on every
// path — spelling no flag can never be a usage error.
func TestFlagDefaultsPassEverywhere(t *testing.T) {
	contexts := pathContexts(4, 3)
	for path := runPath(0); path < numPaths; path++ {
		if err := validateFlags(defaultFlags(), path, contexts); err != nil {
			t.Errorf("defaults rejected on %s: %v", path, err)
		}
	}
}

// TestFlagContextWording pins the specific hints the table carries over
// from the pre-table validation.
func TestFlagContextWording(t *testing.T) {
	contexts := pathContexts(4, 3)
	cases := []struct {
		mutate func(f *cliFlags)
		path   runPath
		want   string
	}{
		{func(f *cliFlags) { f.cache = true }, pathExhaustiveDPOR, dporContext},
		{func(f *cliFlags) { f.ckptOut = "x" }, pathExhaustiveDPOR, dporContext},
		{func(f *cliFlags) { f.jsonOut = true }, pathList, "single-run result object"},
		{func(f *cliFlags) { f.traceOut = "x" }, pathSweep, "not one canonical schedule"},
		{func(f *cliFlags) { f.sampler = "pct" }, pathExhaustive, "raise -n above -exhaustive-n 3"},
		{func(f *cliFlags) { f.maxExecs = 1 }, pathSampled, "raise -exhaustive-n to at least 4"},
		{func(f *cliFlags) { f.progress = time.Second }, pathList, "runs nothing"},
	}
	for _, c := range cases {
		f := defaultFlags()
		c.mutate(f)
		err := validateFlags(f, c.path, contexts)
		if err == nil {
			t.Errorf("%s: expected a rejection", c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("rejection on %s lost its hint %q: %v", c.path, c.want, err)
		}
	}
}

// TestPathStrings keeps the diagnostic names stable.
func TestPathStrings(t *testing.T) {
	want := map[runPath]string{
		pathList: "list", pathSweep: "sweep", pathSampled: "sampled",
		pathExhaustive: "exhaustive", pathExhaustiveDPOR: "exhaustive-dpor",
	}
	for p, w := range want {
		if p.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), w)
		}
	}
}
