package obs

// The structured JSONL event log: one JSON object per line, recording run
// lifecycle, checkpoint and failure events.
// Each event carries two clocks: wall-clock milliseconds since the log was
// opened (advisory, never reproducible) and a schedule-derived stamp — the
// cumulative attempts count at emission — which is the engine's logical
// clock and lines events up against the progress of the walk rather than
// the machine it ran on.

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event is one log line. Fields is event-type-specific payload; keys are
// stable per type (documented in DESIGN.md's event inventory).
type Event struct {
	// Seq is the per-log emission sequence number, starting at 1.
	Seq int64 `json:"seq"`
	// MS is wall-clock milliseconds since the log was opened. Advisory.
	MS float64 `json:"ms"`
	// Stamp is the schedule-derived logical clock: the cumulative engine
	// attempts count at emission.
	Stamp int64 `json:"stamp"`
	// Type names the event (run_start, walk_end, failure_found, ...).
	Type string `json:"type"`
	// Fields is the event-specific payload.
	Fields map[string]any `json:"fields,omitempty"`
}

// EventLog writes events as JSONL through a buffered writer. Emit is safe
// for concurrent use; Close flushes.
type EventLog struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	c     io.Closer
	start time.Time
	seq   int64
	err   error
}

// NewEventLog wraps a writer. If w is also an io.Closer, Close closes it
// after flushing.
func NewEventLog(w io.Writer) *EventLog {
	l := &EventLog{bw: bufio.NewWriter(w), start: time.Now()}
	if c, ok := w.(io.Closer); ok {
		l.c = c
	}
	return l
}

// Emit appends one event line. Encoding or write errors are sticky and
// surfaced by Close; emission never blocks the caller on anything but the
// log's own mutex.
func (l *EventLog) Emit(typ string, stamp int64, fields map[string]any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	l.seq++
	e := Event{
		Seq:    l.seq,
		MS:     float64(time.Since(l.start).Microseconds()) / 1000,
		Stamp:  stamp,
		Type:   typ,
		Fields: fields,
	}
	data, err := json.Marshal(e)
	if err != nil {
		l.err = err
		return
	}
	if _, err := l.bw.Write(append(data, '\n')); err != nil {
		l.err = err
	}
}

// Close flushes the log (and closes the underlying writer when it is a
// Closer), returning the first error seen.
func (l *EventLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.bw.Flush(); err != nil && l.err == nil {
		l.err = err
	}
	if l.c != nil {
		if err := l.c.Close(); err != nil && l.err == nil {
			l.err = err
		}
		l.c = nil
	}
	return l.err
}
