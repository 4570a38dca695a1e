package main

// Exhaustive validation of stresscheck's flag-applicability table,
// extending the tascheck contract to the new binary: every rule is
// exercised on every run path, both set (changed from default) and unset,
// so no (flag, path) combination can silently drift. The setters map is
// the test's own knowledge of how to flip each flag to a non-default
// value; a rule without a setter fails the completeness check.

import (
	"strings"
	"testing"
	"time"
)

// defaultFlags mirrors the parsed defaults of a bare invocation: every
// rule's Set must report false on it.
func defaultFlags() *cliFlags {
	return &cliFlags{
		g:          defG,
		duration:   defDuration,
		checkEvery: defCheckEvery,
		seed:       defSeed,
		lincheck:   defLincheck,
	}
}

// setters flips each table flag to a non-default value.
var setters = map[string]func(f *cliFlags){
	"-g":           func(f *cliFlags) { f.g = defG + 1 },
	"-duration":    func(f *cliFlags) { f.duration = defDuration + time.Second },
	"-arrival":     func(f *cliFlags) { f.arrival = 1000 },
	"-procs-sweep": func(f *cliFlags) { f.procsSweep = "1,2,4" },
	"-check-every": func(f *cliFlags) { f.checkEvery = defCheckEvery + 1 },
	"-max-rounds":  func(f *cliFlags) { f.maxRounds = 100 },
	"-seed":        func(f *cliFlags) { f.seed = defSeed + 1 },
	"-lincheck":    func(f *cliFlags) { f.lincheck = "online" },
	// The budget knobs are only coherent alongside -lincheck online, so
	// their setters select it too (both flags are allowed on every path,
	// so the extra firing rule cannot change any verdict).
	"-lin-window":      func(f *cliFlags) { f.linWindow = 4096; f.lincheck = "online" },
	"-lin-max-configs": func(f *cliFlags) { f.linMaxConfigs = 1 << 20; f.lincheck = "online" },
	"-lin-max-ops":     func(f *cliFlags) { f.linMaxOps = 1 << 20; f.lincheck = "online" },
	"-json":            func(f *cliFlags) { f.jsonOut = true },
	"-events":          func(f *cliFlags) { f.events = "events.jsonl" },
	"-debug-addr":      func(f *cliFlags) { f.debugAddr = "localhost:0" },
}

// TestFlagTableEveryCombination enumerates (rule × path): a set flag
// passes exactly on its allowed paths and the rejection names the flag;
// an unset flag passes everywhere.
func TestFlagTableEveryCombination(t *testing.T) {
	contexts := pathContexts()
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
	contexts := pathContexts()
	for path := runPath(0); path < numPaths; path++ {
		if err := validateFlags(defaultFlags(), path, contexts); err != nil {
			t.Errorf("defaults rejected on %s: %v", path, err)
		}
	}
}

// TestFlagContextWording pins the per-path hints.
func TestFlagContextWording(t *testing.T) {
	contexts := pathContexts()
	cases := []struct {
		mutate func(f *cliFlags)
		path   runPath
		want   string
	}{
		{func(f *cliFlags) { f.jsonOut = true }, pathList, "stress-result array"},
		{func(f *cliFlags) { f.events = "x" }, pathList, "runs nothing"},
		{func(f *cliFlags) { f.debugAddr = "x" }, pathList, "runs nothing"},
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

// TestLincheckCrossFlagDeps pins the cross-flag dependency the per-flag
// table cannot express: the JIT budget knobs demand -lincheck online.
func TestLincheckCrossFlagDeps(t *testing.T) {
	contexts := pathContexts()
	knobs := map[string]func(f *cliFlags){
		"-lin-window":      func(f *cliFlags) { f.linWindow = 4096 },
		"-lin-max-configs": func(f *cliFlags) { f.linMaxConfigs = 1 << 20 },
		"-lin-max-ops":     func(f *cliFlags) { f.linMaxOps = 1 << 20 },
	}
	for name, set := range knobs {
		for _, mode := range []string{defLincheck, "off"} {
			f := defaultFlags()
			f.lincheck = mode
			set(f)
			err := validateFlags(f, pathStress, contexts)
			if err == nil {
				t.Errorf("%s with -lincheck %s: silently accepted", name, mode)
				continue
			}
			if !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "requires -lincheck online") {
				t.Errorf("%s with -lincheck %s: rejection lost its hint: %v", name, mode, err)
			}
		}
		f := defaultFlags()
		f.lincheck = "online"
		set(f)
		if err := validateFlags(f, pathStress, contexts); err != nil {
			t.Errorf("%s with -lincheck online: unexpectedly rejected: %v", name, err)
		}
	}
}

// TestPathStrings keeps the diagnostic names stable.
func TestPathStrings(t *testing.T) {
	want := map[runPath]string{pathList: "list", pathStress: "stress"}
	for p, w := range want {
		if p.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), w)
		}
	}
}

// TestParseProcsSweep pins the sweep-list syntax and its rejections.
func TestParseProcsSweep(t *testing.T) {
	got, err := parseProcsSweep("1, 2,4,8")
	if err != nil || len(got) != 4 || got[0] != 1 || got[3] != 8 {
		t.Errorf("parseProcsSweep(\"1, 2,4,8\") = %v, %v", got, err)
	}
	if got, err := parseProcsSweep(""); err != nil || got != nil {
		t.Errorf("empty sweep = %v, %v; want nil, nil", got, err)
	}
	for _, bad := range []string{"0", "-1", "a", "1,,2", "1,2.5"} {
		if _, err := parseProcsSweep(bad); err == nil {
			t.Errorf("parseProcsSweep(%q): accepted", bad)
		}
	}
}
