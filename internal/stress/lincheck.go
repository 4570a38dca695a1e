package stress

// The stress tier's history-recording linearizability modes. The spot-check
// (Config.CheckEvery) samples: it judges only the rounds it looks at. The
// modes here verify: every recorded operation of every round flows through
// the streaming JIT checker (internal/linearize), either concurrently with
// the workload (online) or after it (post). Rounds are object-instance
// resets, so each round is fed to the streams and closed by a Barrier. A
// Barrier solves what an object buffered as one window when it fits the
// checker's segment target (512 ops), whatever quiescent cuts the round
// holds, so a run reports one window per object per round it had
// operations in. Only a bigger round is cut at its quiescent points, so
// G-goroutine rounds of any size still verify in bounded memory.
//
// Both modes record the same way: after each round its closing worker appends
// the round's history to a linBatch and hands the batch off once it holds
// linBatchRounds rounds, and the last, partial one after the run. Online, a
// batch goes to the checker goroutine over a channel that holds
// linBatchesInFlight batches and comes back through a free list for reuse,
// so a warmed run allocates nothing per round and pays the hand-off, the
// clock reads and the counter updates once per batch. Post keeps the batches
// and feeds them after the run.

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/linearize"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/spec"
	"repro/internal/trace"
)

// LinMode selects the stress tier's linearizability checking mode.
type LinMode int

// The modes. The zero value preserves the historical driver behavior.
const (
	// LinSpot is the default: sampled spot-checks through the scenario's
	// own check function every CheckEvery rounds, no history streaming.
	LinSpot LinMode = iota
	// LinOff disables correctness checking entirely (pure throughput).
	LinOff
	// LinOnline streams every round's recorded history through the JIT
	// checker concurrently with the workload.
	LinOnline
	// LinPost records every round's history compactly and verifies it all
	// after the run completes.
	LinPost
)

// ParseLinMode parses a -lincheck mode name.
func ParseLinMode(s string) (LinMode, error) {
	switch s {
	case "spot":
		return LinSpot, nil
	case "off":
		return LinOff, nil
	case "online":
		return LinOnline, nil
	case "post":
		return LinPost, nil
	}
	return LinSpot, fmt.Errorf("stress: unknown lincheck mode %q (want off, spot, online or post)", s)
}

// String renders the mode name.
func (m LinMode) String() string {
	switch m {
	case LinOff:
		return "off"
	case LinOnline:
		return "online"
	case LinPost:
		return "post"
	default:
		return "spot"
	}
}

// linChecker drives one JIT stream per object of the scenario's oracle,
// feeding it round histories and closing each round with a Barrier (a
// round reset starts a fresh object instance). A round whose history fails
// to linearize is counted and its stream restarted, so one bad round does
// not mask later ones.
type linChecker struct {
	// The objects, by sorted module name ("" for a single-object oracle):
	// module order[j] has sequential type types[j] and stream streams[j].
	order   []string
	types   []spec.Type
	streams []*linearize.Stream
	single  bool
	cfg     linearize.JITConfig

	maxOps int64

	opsC    *obs.Counter
	roundsC *obs.Counter
	failC   *obs.Counter

	fed       int64
	truncated bool
	failures  int64
	firstErr  string
	err       error
	stats     linearize.Stats
	wall      time.Duration
}

// newLinChecker validates that the oracle is checkable by history and
// builds the per-object streams.
func newLinChecker(o scenario.Oracle, cfg linearize.JITConfig, maxOps int64, m *obs.Metrics) (*linChecker, error) {
	if o.Kind != scenario.OracleLinearize {
		return nil, fmt.Errorf("stress: -lincheck online/post needs a linearize oracle, scenario has %s", o)
	}
	lc := &linChecker{
		cfg:     cfg,
		maxOps:  maxOps,
		opsC:    m.Counter("stress_lincheck_ops_total", "Operations verified by the streaming linearizability checker."),
		roundsC: m.Counter("stress_lincheck_rounds_total", "Round histories fed to the streaming linearizability checker."),
		failC:   m.Counter("stress_lincheck_failures_total", "Round histories the streaming checker found non-linearizable."),
	}
	if o.Objects != nil {
		for mod := range o.Objects {
			lc.order = append(lc.order, mod)
		}
		slices.Sort(lc.order)
		for _, mod := range lc.order {
			lc.types = append(lc.types, o.Objects[mod])
		}
	} else {
		lc.single = true
		lc.order, lc.types = []string{""}, []spec.Type{o.Type}
	}
	for _, t := range lc.types {
		lc.streams = append(lc.streams, linearize.NewStream(t, cfg))
	}
	return lc, nil
}

// linBatchRounds is how many rounds the online checker receives at once.
// Handing over a round of a dozen operations (tasfai, G=4) costs a channel
// send, a checker wake-up, two clock reads and three counter updates; paid
// per round, with a fresh slice each, that hand-off and the garbage
// collector took about two thirds of an online run, the checker one third.
// A batch of 64 pays it once per 64 rounds while its buffer (768
// operations, ≈100 KB at G=4) stays cache-sized, and the live counters lag
// the workload by at most 64 rounds.
const linBatchRounds = 64

// linBatchesInFlight is how many full batches (256 rounds) may wait for the
// online checker before the closing worker blocks, so a checker that falls
// behind slows the workload instead of growing memory. With one batch being
// filled and one being checked, at most linBatchesInFlight+2 batches exist.
const linBatchesInFlight = 4

// linBatch holds consecutive rounds' histories in one reused buffer: round
// i's operations are ops[ends[i-1]:ends[i]] (from 0 for the first).
type linBatch struct {
	ops  []trace.Op
	ends []int
}

// add appends the round src records to the batch and returns the round's
// operation count.
func (b *linBatch) add(src trace.Source) int64 {
	n := len(b.ops)
	b.ops = src(b.ops)
	b.ends = append(b.ends, len(b.ops))
	return int64(len(b.ops) - n)
}

// feedBatch feeds a batch round by round. The clock and the verified-ops
// and rounds counters move once per batch, by the batch's totals.
func (lc *linChecker) feedBatch(b *linBatch) {
	t0, fed0, rounds := time.Now(), lc.fed, int64(0)
	start := 0
	for _, end := range b.ends {
		if lc.err != nil {
			break
		}
		lc.feedRound(b.ops[start:end])
		start = end
		rounds++
	}
	lc.opsC.Add(0, lc.fed-fed0)
	lc.roundsC.Add(0, rounds)
	lc.wall += time.Since(t0)
}

// feedRound streams one round's recorded operations and closes the round.
// Aborted operations are projected, in place, to pending invocations
// (Theorem 3's projection), exactly as Oracle.Check does. A stream is
// looked up once per run of operations on the same module.
func (lc *linChecker) feedRound(ops []trace.Op) {
	j := -1 // the object of the last operation fed
	for i := range ops {
		op := &ops[i]
		if lc.maxOps > 0 && lc.fed >= lc.maxOps {
			lc.truncated = true
			break
		}
		if op.Aborted {
			op.Aborted, op.Pending, op.Ret = false, true, 0
		}
		if j < 0 || !lc.single && op.Module != lc.order[j] {
			// An oracle names a handful of objects: a scan beats a search.
			if j = 0; !lc.single {
				if j = slices.Index(lc.order, op.Module); j < 0 {
					lc.err = fmt.Errorf("stress: operation %v labeled with unknown module %q", op.Req, op.Module)
					return
				}
			}
		}
		if err := lc.streams[j].Push(*op); err != nil {
			lc.err = err
			return
		}
		lc.fed++
	}
	for j, s := range lc.streams {
		if err := s.Barrier(); err != nil {
			lc.err = err
			return
		}
		if f := s.Failed(); f != nil {
			// Restart the stream so later rounds keep being verified.
			lc.noteFailure(j, f.Reason)
			lc.stats.Fold(s.Stats())
			lc.streams[j] = linearize.NewStream(lc.types[j], lc.cfg)
		}
	}
}

// noteFailure counts a failed history of object j.
func (lc *linChecker) noteFailure(j int, reason string) {
	lc.failures++
	lc.failC.Add(0, 1)
	if lc.firstErr == "" {
		lc.firstErr = fmt.Sprintf("not linearizable (%s): %s", lc.types[j].Name(), reason)
	}
}

// finish closes every stream and folds the telemetry.
func (lc *linChecker) finish() {
	if lc.err != nil {
		return
	}
	t0 := time.Now()
	for j, s := range lc.streams {
		r, err := s.Finish()
		if err != nil {
			lc.err = err
			break
		}
		if !r.Ok {
			lc.noteFailure(j, r.Reason)
		}
		lc.stats.Fold(s.Stats())
	}
	lc.wall += time.Since(t0)
}
