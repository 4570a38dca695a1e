package main

// The outside-in ledger of a traced run. Spans are recorded from this
// package only, around calls into each layer's public functions and around
// the four closures of an engine.Harness; nothing inside the program is
// instrumented. Every span folds into a per-name count and total; a
// bounded sample of raw spans (those of the first rawRuns executions or
// rounds) is kept in memory and written as Chrome trace-event JSON when the
// run ends.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names one instrumented boundary.
type spanKind int

const (
	spRun spanKind = iota // the workload's root call: engine.Run, randexp.Run, stress.Run or the CheckObjects replica
	spConstruct
	spBody
	spCheck
	spReset
	spLinSort
	spLinNewStream
	spLinPush
	spLinFinish
	numSpans
)

// spanInfo is the static span tree: every kind's display name, its parent,
// and whether it runs serially inside the parent (only serial children are
// subtracted for the parent's self time — process bodies of one execution
// overlap each other while parked at the gate, so their spans are counted
// and summed but never subtracted).
var spanInfo = [numSpans]struct {
	name   string
	parent spanKind
	serial bool
}{
	spRun:          {"run", -1, false},
	spConstruct:    {"harness.construct", spRun, true},
	spBody:         {"harness.body", spRun, false},
	spCheck:        {"harness.check", spRun, true},
	spReset:        {"harness.reset", spRun, true},
	spLinSort:      {"linearize.partition+sort", spRun, true},
	spLinNewStream: {"linearize.NewStream", spRun, true},
	spLinPush:      {"linearize.Push", spRun, true},
	spLinFinish:    {"linearize.Finish", spRun, true},
}

// rawRuns bounds the raw-span sample: spans belonging to executions (or
// stress rounds) with an index below it are kept verbatim.
const rawRuns = 10000

type rawSpan struct {
	kind       spanKind
	start, end int64 // ns since ledger start
	run        int64
	tid        int
}

type ledger struct {
	t0       time.Time
	rootName string
	count    [numSpans]atomic.Int64
	total    [numSpans]atomic.Int64
	// run is the index of the execution or round in flight: the reset
	// wrapper (the last harness call of an execution) advances it.
	run atomic.Int64

	mu  sync.Mutex
	raw []rawSpan
}

func newLedger(rootName string) *ledger {
	return &ledger{t0: time.Now(), rootName: rootName}
}

// now is the ledger clock: monotonic nanoseconds since the ledger started.
func (l *ledger) now() int64 { return int64(time.Since(l.t0)) }

// add records one span covering n operations of its kind (n is 1 except
// for chunked Push spans, where timing every call would cost more than the
// call).
func (l *ledger) add(k spanKind, tid int, start, end, n int64) {
	l.count[k].Add(n)
	l.total[k].Add(end - start)
	if run := l.run.Load(); run < rawRuns {
		l.mu.Lock()
		l.raw = append(l.raw, rawSpan{k, start, end, run, tid})
		l.mu.Unlock()
	}
}

func (l *ledger) name(k spanKind) string {
	if k == spRun {
		return l.rootName
	}
	return spanInfo[k].name
}

// self is a span kind's total minus what its serial children cover.
func (l *ledger) self(k spanKind) int64 {
	s := l.total[k].Load()
	for c := spanKind(0); c < numSpans; c++ {
		if spanInfo[c].parent == k && spanInfo[c].serial {
			s -= l.total[c].Load()
		}
	}
	return s
}

// mean is the mean span duration in nanoseconds (0 with no spans).
func (l *ledger) mean(k spanKind) float64 {
	n := l.count[k].Load()
	if n == 0 {
		return 0
	}
	return float64(l.total[k].Load()) / float64(n)
}

// print renders the aggregated ledger: one row per span name seen.
func (l *ledger) print(w io.Writer) {
	fmt.Fprintf(w, "# ledger  %-26s %10s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "mean_ns")
	for k := spanKind(0); k < numSpans; k++ {
		if l.count[k].Load() == 0 {
			continue
		}
		fmt.Fprintf(w, "# ledger  %-26s %10d %12.3f %12.3f %10.0f\n", l.name(k), l.count[k].Load(),
			float64(l.total[k].Load())/1e6, float64(l.self(k))/1e6, l.mean(k))
	}
}

// writeChrome writes the raw-span sample as Chrome trace-event JSON
// (chrome://tracing, Perfetto): one complete ("X") event per span, tid the
// process or worker it ran on, args carrying the execution index and the
// parent span's name.
func (l *ledger) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	l.mu.Lock()
	events := make([]event, 0, len(l.raw))
	for _, s := range l.raw {
		args := map[string]any{"run": s.run}
		if p := spanInfo[s.kind].parent; p >= 0 {
			args["parent"] = l.name(p)
		}
		events = append(events, event{
			Name: l.name(s.kind), Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: s.tid, Args: args,
		})
	}
	l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating trace directory: %w", err)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
