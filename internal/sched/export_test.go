package sched

// Switches returns the coroutine switches x has made since construction.
func (x *Executor) Switches() int64 { return x.switches }

// Where returns the coroutine party p sits in, or -1 while it runs or once
// its coroutine has ended; the driver is party n.
func (x *Executor) Where(p int) int { return x.where[p] }
