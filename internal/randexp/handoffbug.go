package randexp

import (
	"errors"

	"repro/internal/engine"
	"repro/internal/memory"
	"repro/internal/sched"
)

// HandoffBug returns a reference harness with a seeded rare-interleaving
// bug of depth 2, used to compare samplers' bug-finding power (bench E12
// and the subsystem's own tests). Process 0 performs warmup private reads,
// publishes a flag, performs gap more private reads, then reads an ack;
// process 1 reads the flag as its very first step and acknowledges only if
// it saw it set; processes 2..n-1 are warmup-read noise. The check fails
// exactly when the full handoff happened, which requires (a) process 0's
// flag write — its step warmup+1 — to precede process 1's first step, and
// (b) process 1's ack to land inside process 0's gap window. Under uniform
// sampling constraint (a) alone has probability about 2^-(warmup+1); under
// PCT with depth 2 the bug needs only process 0 outranking process 1 plus
// one change point in the gap window, and a skewed rates sampler (fast
// process 0, slow process 1) finds it at constant rate.
func HandoffBug(n, warmup, gap int) engine.Harness {
	if n < 2 {
		panic("randexp: HandoffBug requires n >= 2")
	}
	return func() (*memory.Env, []func(p *memory.Proc), func(res *sched.Result) error, func()) {
		env := memory.NewEnv(n)
		flag := memory.NewIntReg(0)
		ack := memory.NewIntReg(0)
		env.Register(flag, ack)
		scratch := make([]*memory.IntReg, n)
		for i := range scratch {
			scratch[i] = memory.NewIntReg(0)
			env.Register(scratch[i])
		}
		got := new(int64)
		bodies := make([]func(p *memory.Proc), n)
		bodies[0] = func(p *memory.Proc) {
			for s := 0; s < warmup; s++ {
				scratch[0].Read(p)
			}
			flag.Write(p, 1)
			for s := 0; s < gap; s++ {
				scratch[0].Read(p)
			}
			*got = ack.Read(p)
		}
		bodies[1] = func(p *memory.Proc) {
			if flag.Read(p) == 1 {
				ack.Write(p, 1)
			}
		}
		for i := 2; i < n; i++ {
			i := i
			bodies[i] = func(p *memory.Proc) {
				for s := 0; s < warmup; s++ {
					scratch[i].Read(p)
				}
			}
		}
		check := func(res *sched.Result) error {
			if *got == 1 {
				return errors.New("handoff bug: process 0 observed the acknowledged flag")
			}
			return nil
		}
		reset := func() { *got = 0 }
		return env, bodies, check, reset
	}
}
