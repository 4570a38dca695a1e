package main

// Observability wiring for a tascheck invocation: the -progress, -events
// and -debug-addr flags share one obs.Metrics domain attached to the run's
// engine config. All of it is strictly advisory — the obs equivalence
// tests pin that results are byte-identical with the layer on or off.

import (
	"fmt"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/trace"
)

// obsSession owns the lifecycle of the observability sinks of one run. A
// nil session (no obs flag set) is valid everywhere and does nothing.
type obsSession struct {
	m    *obs.Metrics
	el   *obs.EventLog
	srv  *obs.Server
	prog *obs.Progress
}

// newObsSession builds the domain demanded by the flags, or nil when none
// of -progress, -events, -debug-addr was set. info labels land in the
// Prometheus repro_run_info metric and the /statusz object.
func newObsSession(f *cliFlags, workers int, info map[string]string) (*obsSession, error) {
	if f.progress == 0 && f.events == "" && f.debugAddr == "" {
		return nil, nil
	}
	s := &obsSession{m: obs.New(workers)}
	for k, v := range info {
		s.m.SetInfo(k, v)
	}
	if f.events != "" {
		out, err := os.Create(f.events)
		if err != nil {
			return nil, fmt.Errorf("opening -events file: %w", err)
		}
		s.el = obs.NewEventLog(out)
		s.m.SetEvents(s.el)
		s.m.Event("run_start", map[string]any{"argv": os.Args[1:], "info": info})
	}
	if f.debugAddr != "" {
		srv, err := obs.Serve(f.debugAddr, s.m)
		if err != nil {
			return nil, fmt.Errorf("starting -debug-addr server: %w", err)
		}
		s.srv = srv
		fmt.Fprintf(os.Stderr, "tascheck: debug endpoint on http://%s (/metrics, /statusz, /debug/pprof)\n", srv.Addr)
	}
	return s, nil
}

// metrics is the engine-config hook; nil-safe.
func (s *obsSession) metrics() *obs.Metrics {
	if s == nil {
		return nil
	}
	return s.m
}

// event emits into the session's event log; nil-safe.
func (s *obsSession) event(typ string, fields map[string]any) {
	if s != nil {
		s.m.Event(typ, fields)
	}
}

// startProgress launches the live reporter when -progress asked for one.
func (s *obsSession) startProgress(interval time.Duration, estTotal float64, estUpper bool, label string) {
	if s == nil || interval <= 0 {
		return
	}
	s.prog = obs.StartProgress(obs.ProgressConfig{
		Interval: interval,
		Out:      os.Stderr,
		Metrics:  s.m,
		EstTotal: estTotal,
		EstUpper: estUpper,
		Label:    label,
	})
}

// close tears the sinks down in dependency order: reporter, run_end event,
// event log flush, HTTP server. Errors surface on stderr but never change
// the exit code — observability is advisory.
func (s *obsSession) close(verdict string) {
	if s == nil {
		return
	}
	s.prog.Stop()
	s.m.Event("run_end", map[string]any{"verdict": verdict})
	if s.el != nil {
		if err := s.el.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "tascheck: writing -events file: %v\n", err)
		}
	}
	if s.srv != nil {
		s.srv.Close()
	}
}

// estimateTree Knuth-estimates the size of a scenario's interleaving tree
// with a short bias-corrected random-walk probe on a fresh harness
// instance (fresh so the probe's check-state accumulation cannot leak into
// the measured run). Returns 0 — no ETA — when the estimator does not
// apply (crash injection) or the probe finds nothing.
func estimateTree(sc scenario.Scenario, procs int, opts scenario.Options) float64 {
	if opts.Crashes {
		return 0
	}
	h, _ := sc.Build(procs, opts)
	rep, _ := engine.Sample(h, engine.SampleConfig{
		Sampler: engine.SamplerWalk,
		Samples: 200,
		Seed:    1,
		Workers: 1,
	})
	return rep.TreeSizeEstimate
}

// writeTraceOut renders a failing schedule as a Chrome trace-event JSON
// file. The schedule is replayed on a fresh harness instance to recover
// the per-step access metadata (object, operation kind) the annotations
// need.
func writeTraceOut(path string, sc scenario.Scenario, procs int, opts scenario.Options, schedule []sched.Choice) error {
	h, _ := sc.Build(procs, opts)
	env, bodies, _, _ := h()
	res := sched.Run(env, sched.NewReplay(schedule), bodies)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("opening -trace-out file: %w", err)
	}
	if err := trace.WriteChrome(f, res.Schedule, res.Accesses); err != nil {
		f.Close()
		return fmt.Errorf("writing -trace-out file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing -trace-out file: %w", err)
	}
	fmt.Fprintf(os.Stderr, "tascheck: failing interleaving written to %s (load in ui.perfetto.dev or chrome://tracing)\n", path)
	return nil
}
