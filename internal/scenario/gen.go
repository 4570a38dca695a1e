package scenario

// The seeded composition generator: "gen:<seed>" scenarios assemble random
// derived-object trees from the primitive registry, so the checker's
// scenario family is open-ended rather than fixed. All structural draws —
// family, arity, depth — happen in Generate from a private PRNG seeded
// only by the scenario seed, so a generated scenario is fully determined
// by its name: the same seed yields the same object tree, the same
// interleaving tree, and (the engines being deterministic) the same report
// for any worker count.

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/splitter"
	"repro/internal/tas"
)

// Generate synthesizes the "gen:<seed>" scenario: a derived-object
// composition drawn deterministically from the seed. Three families are
// generated — tournament trees of composed one-shot TAS objects, stacks of
// speculative fetch-and-increment dispensers, and splitter (renaming)
// networks — each with a family-specific invariant oracle.
func Generate(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	name := fmt.Sprintf("%s%d", GenPrefix, seed)
	switch rng.Intn(3) {
	case 0:
		arity := 2 + rng.Intn(2) // 2..3
		depth := 1 + rng.Intn(2) // 1..2
		return genTASTree(name, seed, arity, depth)
	case 1:
		levels := 1 + rng.Intn(3) // 1..3
		return genFAIStack(name, seed, levels)
	default:
		margin := rng.Intn(2) // grid is (n+margin) x (n+margin)
		return genSplitterNet(name, seed, margin)
	}
}

// genTASTree builds a tournament tree of composed one-shot TAS objects:
// level d holds arity^d leaves, each process enters leaf (proc mod leaves)
// and climbs while it keeps winning. Exactly one process wins the root
// (at most one under crashes): every contested node passes up exactly one
// winner, so the nonempty set of entrants thins to a single champion.
func genTASTree(name string, seed int64, arity, depth int) Scenario {
	nodes := 0
	for level, width := 0, 1; level <= depth; level, width = level+1, width*arity {
		nodes += width
	}
	build := func(n int, opts Options) (engine.Harness, Oracle) {
		return harness(n, opts, func(env *memory.Env) instance {
			// levels[0] is the root; levels[d] the leaves.
			levels := make([][]*tas.OneShot, depth+1)
			for level, width := 0, 1; level <= depth; level, width = level+1, width*arity {
				levels[level] = make([]*tas.OneShot, width)
				for j := range levels[level] {
					levels[level][j] = tas.NewOneShot()
					env.Register(levels[level][j])
				}
			}
			rootWin := make([]bool, n)
			body := func(p *memory.Proc) {
				i := p.ID()
				slot := i % len(levels[depth])
				for level := depth; level >= 0; level-- {
					if levels[level][slot].TestAndSet(p) != spec.Winner {
						return
					}
					slot /= arity
				}
				rootWin[i] = true
			}
			check := func(res *sched.Result) error {
				winners := 0
				for _, w := range rootWin {
					if w {
						winners++
					}
				}
				if winners > 1 || (!opts.Crashes && winners != 1) {
					return fmt.Errorf("%d root winners in the tournament tree", winners)
				}
				return nil
			}
			return instance{body, check, func() { clear(rootWin) }}
		}), Oracle{Kind: OracleInvariant, Invariant: "unique-root-winner"}
	}
	return Scenario{
		Name: name,
		Description: fmt.Sprintf("generated composition (seed %d): TAS tournament tree, arity %d, depth %d (%d one-shot nodes)",
			seed, arity, depth, nodes),
		Params: Params{Crashes: true, Fingerprints: true},
		Build:  build,
	}
}

// genFAIStack builds a stack of independent speculative fetch-and-increment
// dispensers: each process draws one ticket from every level in order;
// within a level, recorded tickets must be unique and non-negative.
func genFAIStack(name string, seed int64, levels int) Scenario {
	build := func(n int, opts Options) (engine.Harness, Oracle) {
		return harness(n, opts, func(env *memory.Env) instance {
			stack := make([]*tas.SpecFetchInc, levels)
			for j := range stack {
				stack[j] = tas.NewSpecFetchInc()
				env.Register(stack[j])
			}
			// tickets[j][i] is process i's ticket at level j (-1 = not drawn).
			tickets := make([][]int64, levels)
			for j := range tickets {
				tickets[j] = make([]int64, n)
			}
			resetTickets := func() {
				for j := range tickets {
					for i := range tickets[j] {
						tickets[j][i] = -1
					}
				}
			}
			resetTickets()
			body := func(p *memory.Proc) {
				i := p.ID()
				for j := range stack {
					tk, _ := stack[j].Inc(p)
					tickets[j][i] = tk
				}
			}
			check := func(res *sched.Result) error {
				for j := range tickets {
					seen := map[int64]bool{}
					for i, tk := range tickets[j] {
						if tk == -1 {
							continue // not drawn (crashed or still climbing)
						}
						if tk < 0 {
							return fmt.Errorf("level %d: negative ticket %d", j, tk)
						}
						if seen[tk] {
							return fmt.Errorf("level %d: duplicate ticket %d (proc %d)", j, tk, i)
						}
						seen[tk] = true
					}
				}
				return nil
			}
			return instance{body, check, resetTickets}
		}), Oracle{Kind: OracleInvariant, Invariant: "unique-tickets"}
	}
	return Scenario{
		Name: name,
		Description: fmt.Sprintf("generated composition (seed %d): stack of %d speculative fetch-and-increment dispensers",
			seed, levels),
		Params: Params{Crashes: true},
		Build:  build,
	}
}

// genSplitterNet builds a Moir–Anderson-style renaming network: a
// (n+margin)² grid of splitters, each process walking from the top-left
// corner (Stop claims the cell as its name, Down and Right move on). Names
// must be unique, and without crashes every process acquires one inside
// the grid.
func genSplitterNet(name string, seed int64, margin int) Scenario {
	build := func(n int, opts Options) (engine.Harness, Oracle) {
		size := n + margin
		return harness(n, opts, func(env *memory.Env) instance {
			grid := make([][]*splitter.Splitter, size)
			for r := range grid {
				grid[r] = make([]*splitter.Splitter, size)
				for c := range grid[r] {
					grid[r][c] = splitter.New()
					env.Register(grid[r][c])
				}
			}
			names := make([]int, n)
			resetNames := func() {
				for i := range names {
					names[i] = -1
				}
			}
			resetNames()
			body := func(p *memory.Proc) {
				r, c := 0, 0
				for r < size && c < size {
					switch grid[r][c].Get(p) {
					case splitter.Stop:
						names[p.ID()] = r*size + c
						return
					case splitter.Down:
						r++
					default:
						c++
					}
				}
			}
			check := func(res *sched.Result) error {
				seen := map[int]bool{}
				for i, nm := range names {
					if nm == -1 {
						if !opts.Crashes {
							return fmt.Errorf("proc %d left the %dx%d grid without a name", i, size, size)
						}
						continue
					}
					if seen[nm] {
						return fmt.Errorf("name %d claimed twice", nm)
					}
					seen[nm] = true
				}
				return nil
			}
			return instance{body, check, resetNames}
		}), Oracle{Kind: OracleInvariant, Invariant: "unique-names"}
	}
	return Scenario{
		Name: name,
		Description: fmt.Sprintf("generated composition (seed %d): splitter renaming network, (n+%d)² grid",
			seed, margin),
		Params: Params{Crashes: true, Fingerprints: true},
		Build:  build,
	}
}
