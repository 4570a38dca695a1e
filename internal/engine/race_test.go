package engine

import (
	"fmt"
	"slices"

	"repro/internal/memory"
)

// refRaces is the reference race analysis for findRaces: happens-before
// built from every earlier dependent event rather than from the dependence
// frontier, and for every event from the item's spawn transition on, a scan
// over every earlier event that checks each conflicting pair for an
// intermediate happens-before chain. It returns the races in the order
// findRaces must: by the later event, then by the earlier one descending.
func refRaces(c *itemChooser) []race {
	m := len(c.trans)
	start := max(len(c.prefix)-1, 0)
	dependent := func(i, j int) bool {
		if c.trans[i].Proc == c.trans[j].Proc {
			return true
		}
		return !c.trans[i].Crash && !c.trans[j].Crash && c.accs[i].Conflicts(c.accs[j])
	}
	hb := make([][]bool, m) // hb[j][k]: event k happens-before event j
	for j := range hb {
		hb[j] = make([]bool, m)
		for i := 0; i < j; i++ {
			if dependent(i, j) {
				hb[j][i] = true
				for k := 0; k < i; k++ {
					hb[j][k] = hb[j][k] || hb[i][k]
				}
			}
		}
	}
	var races []race
	for j := start; j < m; j++ {
		if c.trans[j].Crash {
			continue
		}
		for i := j - 1; i >= 0; i-- {
			if c.trans[i].Crash || c.trans[i].Proc == c.trans[j].Proc || !c.accs[i].Conflicts(c.accs[j]) {
				continue
			}
			reversible := true
			for g := i + 1; g < j; g++ {
				if hb[j][g] && hb[g][i] {
					reversible = false
					break
				}
			}
			if reversible {
				races = append(races, race{int32(i), int32(j)})
			}
		}
	}
	return races
}

// RaceScans is what RunComparingRaceScans saw: how many traces it
// compared, how many of their races paired a write with an earlier read,
// and the first trace whose race lists differed.
type RaceScans struct {
	Traces, ReadRaces int
	Diff              error
}

// RunComparingRaceScans is Run at one worker that holds every analysed
// trace's race list to refRaces', pair for pair and in order.
func RunComparingRaceScans(h Harness, cfg Config) (Report, RaceScans, error) {
	var rs RaceScans
	cfg.Workers = 1
	rep, err := run(h, cfg, func(c *itemChooser, races []race) {
		rs.Traces++
		for _, r := range races {
			if c.accs[r.i].Kind == memory.OpRead {
				rs.ReadRaces++
			}
		}
		if rs.Diff != nil {
			return
		}
		if want := refRaces(c); !slices.Equal(races, want) {
			rs.Diff = fmt.Errorf("trace %v, races from event %d: frontier scan %v, pair scan %v",
				c.trans, max(len(c.prefix)-1, 0), races, want)
		}
	})
	return rep, rs, err
}
