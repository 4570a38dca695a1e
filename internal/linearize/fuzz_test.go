package linearize

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/spec"
	"repro/internal/trace"
)

// byteSource is a rand.Source that spends two input bytes per draw, so the
// fuzzer's mutations steer every choice jitGens' generators make through
// rng.Intn (which keeps bits 32 and up of Int63). Exhausted input reads as
// zeros.
type byteSource struct{ data []byte }

func (b *byteSource) Seed(int64) {}

func (b *byteSource) Int63() int64 {
	var v int64
	for shift := 32; shift <= 40 && len(b.data) > 0; shift += 8 {
		v |= int64(b.data[0]) << shift
		b.data = b.data[1:]
	}
	return v
}

// fuzzHistory decodes bytes into a history of at most 12 operations of one
// registered type, shaped like randomJITOps': overlap-heavy, stamps that
// collide, a fifth of the operations pending — but no more than 4 of them:
// the checker enumerates every order in which pending operations may take
// effect, and a dozen pending enqueues of distinct values is a (correctly
// reported) configuration-budget error, not a verdict to compare.
func fuzzHistory(data []byte) (spec.Type, []trace.Op) {
	rng := rand.New(&byteSource{data})
	types := spec.Types()
	ty := types[rng.Intn(len(types))]
	gen := jitGens()[ty.Name()]
	ops := make([]trace.Op, 1+rng.Intn(12))
	pending := 0
	for i := range ops {
		opName, arg, resp := gen(i, rng)
		o := trace.Op{Req: spec.Request{ID: int64(i + 1), Op: opName, Arg: arg}, Inv: 1 + int64(rng.Intn(16))}
		if rng.Intn(5) == 0 && pending < 4 {
			o.Pending = true
			pending++
		} else {
			o.Ret = o.Inv + int64(rng.Intn(8))
			o.Resp = resp
		}
		ops[i] = o
	}
	return ty, ops
}

// FuzzStreamMatchesBruteForce: on any small history of any registered
// type, the JIT checker's verdict equals memoSearch's and — up to 7
// operations, where enumerating every order is affordable — the
// brute-force oracle's, and an accepting witness replays through the spec.
// It is the safety net under the solver's hand-rolled memo, event list and
// interner. The seed corpus is testdata/fuzz/FuzzStreamMatchesBruteForce,
// which a plain `go test` runs too.
func FuzzStreamMatchesBruteForce(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ty, ops := fuzzHistory(data)
		// The checker carries every reachable configuration across a cut,
		// so a dozen concurrent enqueues of distinct values is 12! of them:
		// a budget overrun is a contract error it must name, the one error
		// admissible here, and never a verdict.
		res, _, err := CheckJIT(ty, ops, JITConfig{MaxConfigs: 1 << 14})
		if err != nil {
			if strings.Contains(err.Error(), "configuration budget") {
				t.Skip(err)
			}
			t.Fatalf("CheckJIT error on %s %+v: %v", ty.Name(), ops, err)
		}
		if want := memoSearch(ty, ops); res.Ok != want {
			t.Fatalf("disagreement on %s %+v: CheckJIT=%v memoSearch=%v", ty.Name(), ops, res.Ok, want)
		}
		if len(ops) <= 7 {
			if want := bruteForce(ty, ops); res.Ok != want {
				t.Fatalf("disagreement on %s %+v: CheckJIT=%v brute=%v", ty.Name(), ops, res.Ok, want)
			}
		}
		if res.Ok {
			replayable(t, ty, res.Witness, ops)
		}
	})
}
