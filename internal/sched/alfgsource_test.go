package sched

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// The tests below hold alfgSource to math/rand's own source word for word.
// rand.NewSource appears in this package's tests only: it is the reference.

// sameStream draws n numbers from both sources, alternating the two methods
// of rand.Source64, and reports the first disagreement.
func sameStream(t testing.TB, what string, got *alfgSource, want rand.Source64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("%s: draw %d: Int63 = %d, math/rand %d", what, i, g, w)
			}
			continue
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("%s: draw %d: Uint64 = %d, math/rand %d", what, i, g, w)
		}
	}
}

func stdSource(seed int64) rand.Source64 { return rand.NewSource(seed).(rand.Source64) }

// edgeSeeds exercise math/rand's seed reduction: the zero and negative
// fix-ups, both sides of the 2³¹−1 modulus and its multiples, and seeds far
// outside 32 bits.
func edgeSeeds() []int64 {
	const m = lehmerM
	seeds := []int64{
		0, 1, -1, 29, 89482311, m - 1, m, m + 1, -m, -m - 1, -m + 1,
		-1 << 40, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	for k := int64(2); k <= 5; k++ {
		seeds = append(seeds, k*m, -k*m, k*m+1, k*m-1)
	}
	for c := int64(0); c < 8; c++ {
		seeds = append(seeds, 1<<62+c, 1<<62+(c+1)*m)
	}
	return seeds
}

// wrapDraws is enough for tap (starting at 0) and feed (starting at 334) to
// wrap past the 607-word state three times: every word is materialised,
// overwritten by the feed step, and read back as a sum.
const wrapDraws = 2000

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range edgeSeeds() {
		sameStream(t, "fresh", newALFGSource(seed), stdSource(seed), wrapDraws)
	}
	// The seeds the repo benchmark's sampling workload draws: run i of
	// `-seed s` uses s·1000003 + i.
	for _, s := range []int64{1, 2, 7} {
		for i := int64(0); i < 100; i++ {
			seed := s*1000003 + i
			sameStream(t, "benchmark range", newALFGSource(seed), stdSource(seed), wrapDraws)
		}
	}
}

// TestSourceReseedAfterPartialDraws: a reused source, reseeded after any
// number of draws, continues as a fresh one. The words the earlier seed
// materialised or fed back carry an old stamp and must not leak into the new
// epoch, whether the earlier run touched a few of them or all of them.
func TestSourceReseedAfterPartialDraws(t *testing.T) {
	s := newALFGSource(12345)
	seeds := edgeSeeds()
	for i, partial := range []int{0, 1, 10, 272, 273, 274, 333, 334, 335, 606, 607, 608, 1500} {
		s.Uint64() // leave the previous seed's run at an odd position too
		a, b := seeds[i%len(seeds)], seeds[(i+7)%len(seeds)]
		s.Seed(a)
		sameStream(t, "before reseed", s, stdSource(a), partial)
		s.Seed(b)
		sameStream(t, "after reseed", s, stdSource(b), wrapDraws)
	}
	// Reseeding to the same seed restarts the stream.
	s.Seed(29)
	sameStream(t, "same seed, first run", s, stdSource(29), 50)
	s.Seed(29)
	sameStream(t, "same seed, second run", s, stdSource(29), wrapDraws)
}

// TestSourceEpochWrap forces the 32-bit epoch counter around. Every word
// here carries stamp 1 from the first seed; when the counter wraps back to 1
// those stamps would read as current unless the wrap clears them.
func TestSourceEpochWrap(t *testing.T) {
	s := newALFGSource(1)
	if s.epoch != 1 {
		t.Fatalf("first Seed left epoch %d, want 1", s.epoch)
	}
	sameStream(t, "epoch 1", s, stdSource(1), wrapDraws)
	s.epoch = math.MaxUint32 - 1
	s.Seed(2)
	sameStream(t, "last epoch", s, stdSource(2), 10)
	s.Seed(3)
	if s.epoch != 1 {
		t.Fatalf("Seed at the last epoch left epoch %d, want a wrap to 1", s.epoch)
	}
	sameStream(t, "wrapped epoch", s, stdSource(3), wrapDraws)
}

// TestSourceBehindRand: wrapped in *rand.Rand — the way every strategy holds
// it — the derived draws (rejection sampling in Intn, Float64's retry, Perm)
// agree with math/rand too, across a Seed on the wrapper.
func TestSourceBehindRand(t *testing.T) {
	got := reseed(nil, 99)
	for _, seed := range []int64{1, 29, 0, -5, lehmerM, 1<<62 + 3} {
		got = reseed(got, seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			if g, w := got.Intn(i%9+1), want.Intn(i%9+1); g != w {
				t.Fatalf("seed %d draw %d: Intn = %d, math/rand %d", seed, i, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d draw %d: Float64 = %v, math/rand %v", seed, i, g, w)
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 = %d, math/rand %d", seed, i, g, w)
			}
		}
		if g, w := got.Perm(8), want.Perm(8); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: Perm = %v, math/rand %v", seed, g, w)
		}
	}
}

// FuzzSourceMatchesMathRand: for any seed, a source that first served
// another seed for reseedAt draws and is then reseeded produces math/rand's
// stream for draws draws — the differential tests' property over inputs
// nobody wrote down. The seed corpus is testdata/fuzz/FuzzSourceMatchesMathRand,
// which a plain `go test` runs too.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, draws, reseedAt uint16) {
		got, want := newALFGSource(^seed), stdSource(^seed)
		sameStream(t, "before reseed", got, want, int(reseedAt))
		got.Seed(seed)
		want.Seed(seed)
		sameStream(t, "after reseed", got, want, int(draws))
	})
}
