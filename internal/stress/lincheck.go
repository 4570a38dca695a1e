package stress

// The stress tier's history-recording linearizability mode. The spot-check
// (Config.CheckEvery) samples: it judges only the rounds it looks at. The
// online mode verifies: every recorded operation of every round flows
// through the streaming side of the oracle's linearize.Checker concurrently
// with the workload. Rounds are object-instance resets, so each round is
// pushed to the checker and closed by its Barrier. A Barrier solves what an object
// buffered as one window when it fits the checker's segment target (512
// ops), whatever quiescent cuts the round holds, so a run reports one
// window per object per round it had operations in. Only a bigger round is
// cut at its quiescent points, so G-goroutine rounds of any size still
// verify in bounded memory.
//
// After each round its closing worker appends the round's history to a
// linBatch and hands the batch off once it holds linBatchRounds rounds, and
// the last, partial one after the run. A batch goes to the checker
// goroutine over a channel that holds linBatchesInFlight batches and comes
// back through a free list for reuse, so a warmed run allocates nothing per
// round and pays the hand-off, the clock reads and the counter updates once
// per batch.

import (
	"cmp"
	"fmt"
	"time"

	"repro/internal/linearize"
	"repro/internal/obs"
	"repro/internal/scenario"
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
	}
	return LinSpot, fmt.Errorf("stress: unknown lincheck mode %q (want off, spot or online)", s)
}

// String renders the mode name.
func (m LinMode) String() string {
	switch m {
	case LinOff:
		return "off"
	case LinOnline:
		return "online"
	default:
		return "spot"
	}
}

// linChecker feeds round histories to the linearizability front door of
// the scenario's oracle (linearize.Checker: projection, module routing, a
// Barrier per object per round, a failed object restarted so one bad round
// does not mask later ones) and keeps the tier's counters and its
// LinMaxOps cap.
type linChecker struct {
	lin    *linearize.Checker
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

// newLinChecker builds the checker of a linearize oracle.
func newLinChecker(o scenario.Oracle, cfg linearize.JITConfig, maxOps int64, m *obs.Metrics) (*linChecker, error) {
	if o.Kind != scenario.OracleLinearize {
		return nil, fmt.Errorf("stress: -lincheck online needs a linearize oracle, scenario has %s", o)
	}
	return &linChecker{
		lin:     linearize.NewChecker(o.Type, o.Objects, cfg),
		maxOps:  maxOps,
		opsC:    m.Counter("stress_lincheck_ops_total", "Operations verified by the streaming linearizability checker."),
		roundsC: m.Counter("stress_lincheck_rounds_total", "Round histories fed to the streaming linearizability checker."),
		failC:   m.Counter("stress_lincheck_failures_total", "Round histories the streaming checker found non-linearizable."),
	}, nil
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

// add appends the round src records to the batch.
func (b *linBatch) add(src trace.Source) {
	b.ops = src(b.ops)
	b.ends = append(b.ends, len(b.ops))
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
func (lc *linChecker) feedRound(ops []trace.Op) {
	if lc.maxOps > 0 && lc.fed+int64(len(ops)) > lc.maxOps {
		ops, lc.truncated = ops[:lc.maxOps-lc.fed], true
	}
	for i := range ops {
		if err := lc.lin.Push(&ops[i]); err != nil {
			lc.err = fmt.Errorf("stress: %w", err)
			return
		}
		lc.fed++
	}
	failed, first, err := lc.lin.Barrier()
	if err != nil {
		lc.err = fmt.Errorf("stress: %w", err)
	} else if failed > 0 {
		lc.failures += int64(failed)
		lc.failC.Add(0, int64(failed))
		lc.firstErr = cmp.Or(lc.firstErr, first)
	}
}

// finish folds the checker's telemetry.
func (lc *linChecker) finish() { lc.stats = lc.lin.Stats() }
