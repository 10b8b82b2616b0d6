// Package cpu models the processing cores of the evaluation platform:
// 2 GHz cores that retire one instruction per cycle, block on memory
// reads, and post memory writes to the controller (stalling only when its
// write queue is full). The paper's 4-core out-of-order ALPHA setup is
// substituted by this simpler model: the evaluation's sensitivity to the
// CPU is "reads block the pipeline, writes back-pressure through the
// write queue", which this model reproduces; an O3 window would shift
// absolute IPC but not the relative ordering of write schemes.
package cpu

import (
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/units"
	"tetriswrite/internal/workload"
)

// OpSource supplies a core's instruction stream. The sources are a
// workload.Pipe (a live run's ops, drawn a batch ahead on a producer
// goroutine and applied to the program's shadow in Next), a
// workload.Replay (a recording's ops, applied the same way), a
// workload.Generator (drawn and applied in Next), and a
// trace.CoreSource. Next is only ever called on the engine's
// goroutine. A write's Data is read-only to the core and everything
// below it, and is only valid until the source's next Next call: the
// workload sources overwrite one buffer per write, and a
// trace.CoreSource hands out subslices of the parsed trace shared with
// later replays. The memory ports
// therefore copy the data they keep. A core whose write was refused
// waits in WhenWriteSpace and retries the same op without calling
// Next, so the retry still sees its own data.
type OpSource interface {
	Next() workload.Op
}

// MemPort is the memory interface a core drives, and the one every
// layer below it drives in turn: implemented by the memory controller,
// and by each layer that may sit in front of it (the cache hierarchy,
// the Start-Gap wear-leveling remapper, the spare-line remapper).
// SubmitWrite must copy the data it keeps: callers reuse their write
// buffers.
type MemPort interface {
	SubmitRead(addr pcm.LineAddr, onDone func(at units.Time, data []byte)) bool
	SubmitWrite(addr pcm.LineAddr, data []byte, onDone func(at units.Time)) bool
	WhenWriteSpace(fn func())
}

// Stats describes one core's execution.
type Stats struct {
	Retired    int64          // instructions retired
	Reads      int64          // memory reads issued
	Writes     int64          // memory writes issued
	ReadStall  units.Duration // time blocked on reads
	WriteStall units.Duration // time blocked on a full write queue
	FinishedAt units.Time     // when the instruction budget retired
	Finished   bool
}

// Core executes an operation stream against a memory port.
type Core struct {
	eng    *sim.Engine
	clock  units.Clock
	src    OpSource
	mem    MemPort
	budget int64 // instructions to retire before finishing
	stats  Stats
	onDone func()

	retryBackoff units.Duration

	// The core is strictly serial — at most one continuation is ever
	// outstanding — so its event callbacks are prebound once here and
	// reused for every operation, keeping the steady-state step loop
	// allocation-free. op/issueSince carry the in-flight operation the
	// continuations act on.
	op         workload.Op
	issueSince units.Time
	thinkFn    func()
	budgetFn   func()
	readDoneFn func(at units.Time, data []byte)
	retryRdFn  func()
	retryWrFn  func()
}

// New creates a core. budget is the number of instructions to retire;
// onDone runs when the budget is reached.
func New(eng *sim.Engine, clock units.Clock, src OpSource, mem MemPort, budget int64, onDone func()) *Core {
	c := &Core{
		eng:          eng,
		clock:        clock,
		src:          src,
		mem:          mem,
		budget:       budget,
		onDone:       onDone,
		retryBackoff: 16 * clock.Period(),
	}
	c.thinkFn = func() {
		c.stats.Retired += c.op.Think
		c.issue(c.op)
	}
	c.budgetFn = func() {
		c.stats.Retired = c.budget
		c.finish()
	}
	c.readDoneFn = func(at units.Time, _ []byte) {
		c.stats.ReadStall += at.Sub(c.issueSince)
		c.step()
	}
	c.retryRdFn = func() { c.issueRead(c.op, c.issueSince) }
	c.retryWrFn = func() { c.issueWrite(c.op, c.issueSince) }
	return c
}

// Start schedules the core's first activity. Call once, before running
// the engine.
func (c *Core) Start() {
	c.eng.After(0, c.step)
}

// Stats returns the core's counters.
func (c *Core) Stats() Stats { return c.stats }

// step fetches the next operation and walks through think -> access.
func (c *Core) step() {
	if c.stats.Finished {
		return
	}
	c.op = c.src.Next()
	think := c.op.Think
	if remaining := c.budget - c.stats.Retired; think >= remaining {
		// The budget retires mid-think: finish without the access.
		c.eng.After(c.clock.Cycles(remaining), c.budgetFn)
		return
	}
	c.eng.After(c.clock.Cycles(think), c.thinkFn)
}

func (c *Core) issue(op workload.Op) {
	c.issueSince = c.eng.Now()
	if op.Write {
		c.issueWrite(op, c.issueSince)
		return
	}
	c.issueRead(op, c.issueSince)
}

func (c *Core) issueRead(op workload.Op, since units.Time) {
	c.stats.Reads++
	if !c.mem.SubmitRead(op.Addr, c.readDoneFn) {
		// Read queue full (rare): back off and retry; the retry does not
		// recount the read.
		c.stats.Reads--
		c.eng.After(c.retryBackoff, c.retryRdFn)
	}
}

func (c *Core) issueWrite(op workload.Op, since units.Time) {
	c.stats.Writes++
	if c.mem.SubmitWrite(op.Addr, op.Data, nil) {
		// Posted: the core only paid the queue-stall time, if any.
		c.stats.WriteStall += c.eng.Now().Sub(since)
		c.step()
		return
	}
	c.stats.Writes--
	c.mem.WhenWriteSpace(c.retryWrFn)
}

func (c *Core) finish() {
	c.stats.Finished = true
	c.stats.FinishedAt = c.eng.Now()
	if c.onDone != nil {
		c.onDone()
	}
}

// IPC returns the core's retired instructions per clock cycle up to its
// finish time (or the given now, if unfinished).
func (s Stats) IPC(clock units.Clock, now units.Time) float64 {
	end := s.FinishedAt
	if !s.Finished {
		end = now
	}
	cycles := float64(units.Duration(end)) / float64(clock.Period())
	if cycles == 0 {
		return 0
	}
	return float64(s.Retired) / cycles
}
