package bench

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/scenario"
)

// benchScenario, when set, overrides the workload the engine experiments
// (E10–E12) drive, so their rows can be produced for any registered
// scenario instead of the defaults each experiment documents.
var benchScenario string

// SetScenario selects the scenario the engine experiments run on
// (cmd/composebench -scenario). The name must resolve in the scenario
// registry; empty restores each experiment's default.
func SetScenario(name string) error {
	if name != "" {
		if _, err := scenario.Lookup(name); err != nil {
			return err
		}
	}
	benchScenario = name
	return nil
}

// harnessFor resolves the experiment harness from the scenario registry:
// the configured override if SetScenario was called, otherwise def. It
// returns the harness and its row label.
func harnessFor(def string, n int) (engine.Harness, string) {
	name := benchScenario
	if name == "" {
		name = def
	}
	sc, err := scenario.Lookup(name)
	if err != nil {
		// Registration of the defaults is a package invariant and overrides
		// are validated by SetScenario, so this is unreachable in normal use.
		panic(err)
	}
	procs := sc.Procs(n)
	h, _ := sc.Build(procs, scenario.Options{})
	return h, fmt.Sprintf("%s n=%d", sc.Name, procs)
}
