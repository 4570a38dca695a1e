package trace_test

// Chrome trace-event export: the canonical failing schedule of the planted
// handoff bug round-trips through WriteChrome into valid Trace Event
// Format JSON — one named track per process, one annotated duration event
// per step, instant markers for crashes — and synthetic edge cases (crash
// choices, missing access records) degrade as documented. An external test
// package so it can drive the scenario registry.

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/trace"
)

type chromeDoc struct {
	TraceEvents []trace.ChromeEvent `json:"traceEvents"`
}

// TestChromeRoundTripHandoffBug exports the pinned failing interleaving of
// the handoffbug scenario — exactly what tascheck -trace-out writes — and
// checks the document structure a viewer depends on.
func TestChromeRoundTripHandoffBug(t *testing.T) {
	sc, err := scenario.Lookup("handoffbug")
	if err != nil {
		t.Fatal(err)
	}
	n := sc.Procs(2)
	h, _ := sc.Build(n, scenario.Options{})
	_, runErr := engine.Run(h, engine.Config{Prune: engine.PruneSourceDPOR, Workers: 1})
	var ce *engine.CheckError
	if !errors.As(runErr, &ce) || len(ce.Schedule) == 0 {
		t.Fatalf("handoffbug did not produce a canonical failing schedule: %v", runErr)
	}

	// Replay on a fresh instance to recover the access metadata, as the
	// -trace-out path does.
	h2, _ := sc.Build(n, scenario.Options{})
	env, bodies, _, _ := h2()
	res := sched.Run(env, sched.NewReplay(ce.Schedule), bodies)
	if len(res.Schedule) != len(ce.Schedule) {
		t.Fatalf("replay diverged: %d steps vs %d", len(res.Schedule), len(ce.Schedule))
	}

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, res.Schedule, res.Accesses); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}

	var meta, durs int
	procs := map[int]bool{}
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Name != "thread_name" {
				t.Fatalf("metadata event %d is %q", i, ev.Name)
			}
			if procs[ev.TID] {
				t.Fatalf("track %d named twice", ev.TID)
			}
			procs[ev.TID] = true
		case "X":
			if ev.Dur <= 0 || ev.Name == "" || ev.Args["schedule_pos"] == nil {
				t.Fatalf("malformed duration event %d: %+v", i, ev)
			}
			if !procs[ev.TID] {
				t.Fatalf("step on unnamed track %d", ev.TID)
			}
			durs++
		default:
			t.Fatalf("unexpected phase %q in crash-free schedule", ev.Ph)
		}
	}
	if durs != len(ce.Schedule) {
		t.Fatalf("%d duration events for %d schedule steps", durs, len(ce.Schedule))
	}
	if meta != len(procs) || len(procs) == 0 {
		t.Fatalf("%d thread_name events for %d tracks", meta, len(procs))
	}

	// Timestamps are the schedule order, strictly increasing.
	var lastTS float64 = -1
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.TS <= lastTS {
			t.Fatalf("timestamps not increasing: %g after %g", ev.TS, lastTS)
		}
		lastTS = ev.TS
	}
}

// TestChromeCrashMarker pins the crash rendering: an instant event with
// thread scope on the victim's track, naming the access the victim was
// parked on.
func TestChromeCrashMarker(t *testing.T) {
	schedule := []sched.Choice{
		{Proc: 0},
		{Proc: 1, Crash: true},
		{Proc: 0},
	}
	accesses := []memory.Access{
		{Kind: memory.OpRead, Obj: 3},
		{Kind: memory.OpTAS, Obj: 3},
		{Kind: memory.OpWrite, Obj: 3},
	}
	evs := trace.ChromeSchedule(schedule, accesses)
	var crash *trace.ChromeEvent
	for i := range evs {
		if evs[i].Ph == "i" {
			if crash != nil {
				t.Fatal("two instant events for one crash")
			}
			crash = &evs[i]
		}
	}
	if crash == nil {
		t.Fatal("no instant event for the crash choice")
	}
	if crash.Name != "crash" || crash.Scope != "t" || crash.TID != 1 {
		t.Fatalf("crash marker: %+v", crash)
	}
	if pending, _ := crash.Args["pending"].(string); pending == "" {
		t.Fatalf("crash marker lost the pending access: %+v", crash.Args)
	}
}

// TestChromeMissingAccesses: without an access record the steps render as
// bare "step" events instead of failing.
func TestChromeMissingAccesses(t *testing.T) {
	schedule := []sched.Choice{{Proc: 0}, {Proc: 1}}
	evs := trace.ChromeSchedule(schedule, nil)
	steps := 0
	for _, ev := range evs {
		if ev.Ph == "X" {
			if ev.Name != "step" {
				t.Fatalf("access-free step named %q", ev.Name)
			}
			steps++
		}
	}
	if steps != 2 {
		t.Fatalf("%d steps rendered, want 2", steps)
	}

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.TraceEvents == nil || len(doc.TraceEvents) != 0 {
		t.Fatalf("empty schedule must encode an empty (non-null) array: %s", buf.String())
	}
}
