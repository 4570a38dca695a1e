package scenario

// RunResult is the single-run report object cmd/tascheck -json emits, for
// parity with composebench -json: one JSON object per invocation carrying
// the scenario, the mode actually run, the engine counts, the verdict and
// the canonical failure. It lives here (rather than in the command) so the
// encode/decode round trip is pinned by a package test.

import (
	"errors"

	"repro/internal/engine"
)

// RunChoice is one schedule entry of a reported failure, encoded the way
// checkpoints encode transitions.
type RunChoice struct {
	Proc  int  `json:"proc"`
	Crash bool `json:"crash,omitempty"`
}

// RunFailure describes a check failure: the canonical failing schedule,
// and — for sampled runs — the seed reproducing it (Sampled distinguishes
// a genuine seed 0 from an exhaustive failure).
type RunFailure struct {
	Error    string      `json:"error"`
	Sampled  bool        `json:"sampled,omitempty"`
	Seed     int64       `json:"seed,omitempty"`
	Schedule []RunChoice `json:"schedule,omitempty"`
}

// RunResult is one scenario run: deterministic fields first, advisory
// counts after (see the engine Report contract for which is which).
type RunResult struct {
	Scenario string `json:"scenario"`
	N        int    `json:"n"`
	// Mode is "exhaustive", "exhaustive-partial", "resumed" or "sampled".
	Mode   string `json:"mode"`
	Oracle string `json:"oracle"`
	// Prune names the reduction of an exhaustive run; Sampler the
	// distribution of a sampled one.
	Prune      string `json:"prune,omitempty"`
	Sampler    string `json:"sampler,omitempty"`
	Executions int    `json:"executions"`
	Pruned     int    `json:"pruned,omitempty"`
	Backtracks int    `json:"backtracks,omitempty"`
	CacheHits  int    `json:"cache_hits,omitempty"`
	// Replays counts prefix re-executions (every work item but the root).
	// Advisory, like the engine field it mirrors.
	Replays        int `json:"replays,omitempty"`
	MaxDepth       int `json:"max_depth"`
	DistinctStates int `json:"distinct_states,omitempty"`
	DistinctShapes int `json:"distinct_shapes,omitempty"`
	// WallMS is the run's wall-clock in milliseconds and CutBy the budget
	// that cut a partial run ("executions" | "time" | "depth"). Advisory:
	// consumers comparing results across runs or worker counts must ignore
	// both (the equivalence tests normalize them away).
	WallMS float64 `json:"wall_ms,omitempty"`
	CutBy  string  `json:"cut_by,omitempty"`
	// Verdict is "ok", "fail" (a check failure, detailed in Failure) or
	// "error" (an engine error: nondeterministic harness, bad config).
	Verdict string      `json:"verdict"`
	Error   string      `json:"engine_error,omitempty"`
	Failure *RunFailure `json:"failure,omitempty"`
}

// failureOf folds a run error into the verdict/failure fields.
func (r *RunResult) failureOf(err error) {
	if err == nil {
		r.Verdict = "ok"
		return
	}
	var ce *engine.CheckError
	if !errors.As(err, &ce) {
		r.Verdict = "error"
		r.Error = err.Error()
		return
	}
	r.Verdict = "fail"
	f := &RunFailure{Error: ce.Err.Error(), Sampled: ce.Sampled, Seed: ce.Seed}
	for _, c := range ce.Schedule {
		f.Schedule = append(f.Schedule, RunChoice{Proc: c.Proc, Crash: c.Crash})
	}
	r.Failure = f
}

// ExhaustiveResult builds the -json object of an exhaustive run.
func ExhaustiveResult(name string, n int, oracle Oracle, prune engine.PruneMode, mode string, rep engine.Report, err error) RunResult {
	r := RunResult{
		Scenario:       name,
		N:              n,
		Mode:           mode,
		Oracle:         oracle.String(),
		Prune:          prune.String(),
		Executions:     rep.Executions,
		Pruned:         rep.Pruned,
		Backtracks:     rep.Backtracks,
		CacheHits:      rep.CacheHits,
		Replays:        rep.Replays,
		MaxDepth:       rep.MaxDepth,
		DistinctStates: rep.DistinctStates,
		WallMS:         float64(rep.WallTime.Microseconds()) / 1000,
		CutBy:          rep.CutBy,
	}
	r.failureOf(err)
	return r
}

// SampledResult builds the -json object of a sampled run.
func SampledResult(name string, n int, oracle Oracle, sampler string, rep engine.SampleReport, err error) RunResult {
	r := RunResult{
		Scenario:       name,
		N:              n,
		Mode:           "sampled",
		Oracle:         oracle.String(),
		Sampler:        sampler,
		Executions:     rep.Executions,
		MaxDepth:       rep.MaxDepth,
		DistinctStates: rep.DistinctStates,
		DistinctShapes: rep.DistinctShapes,
		WallMS:         float64(rep.WallTime.Microseconds()) / 1000,
	}
	r.failureOf(err)
	return r
}
