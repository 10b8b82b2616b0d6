package workload

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// Sizes of a Pipeline's batches. They are constants: the stream is the
// same at any size, and only the cost of the hand-off depends on them.
const (
	// inlineOps is how many ops of each core the caller's goroutine
	// draws before any hand-off. A stream that ends inside them starts
	// no goroutine: a short run would pay more to start and feed one
	// than it saves.
	inlineOps = 256
	// batchOps is how many ops a producer draws into one batch.
	batchOps = 512
	// coreBatches is how many batches each producer recycles: the one
	// its core reads and two drawn ahead.
	coreBatches = 3
)

// Pipeline is every core's op stream of one Program up to an
// instruction budget, drawn ahead of the simulation. A core's draws
// (Generator.draw: think gap, kind, address and a write's masks) depend
// only on the program, so they can run on another goroutine; the
// shadow update and the payload (Program.apply) depend on how the cores
// interleave, so each Pipe applies its ops on the goroutine that calls
// Next. The ops, payloads included, are the ones the cores' Generators
// would produce.
//
// Each core's first inlineOps ops are drawn on the goroutine that
// builds the Pipeline. A core whose stream outlasts them gets a
// producer goroutine, which draws the rest into batches of batchOps
// ops, coreBatches of them recycled through a pair of channels, so the
// steady state allocates nothing. Stop ends every producer.
type Pipeline struct {
	pipes []Pipe
	done  chan struct{} // closed by Stop; made with the first producer
	wg    sync.WaitGroup
}

// Pipe is one core's op source in a Pipeline. Next is called on one
// goroutine; a write's Data is valid until its next Next call.
type Pipe struct {
	// Read by Next.
	prog    *Program
	core    int
	payload []byte
	cur     *batch // the batch Next reads
	op      int    // next op of cur
	mask    int    // next mask word of cur
	before  int    // ops of the batches before cur
	first   batch  // the inline ops

	// The draw state: the producer's once it starts.
	gen Generator
	src budgeted

	// The hand-off, nil while the stream is inline.
	full, free chan *batch
	fault      string // the producer's panic, set before it closed full
}

// batch is a run of one core's draws: the ops, and for each write in
// turn its per-unit masks.
type batch struct {
	ops   []drawn
	masks []uint64
	last  bool // the stream's last op ends the batch
}

func (b *batch) add(d drawn, masks []uint64) {
	b.ops = append(b.ops, d)
	if d.kind != opRead {
		b.masks = append(b.masks, masks...)
	}
}

// Pipeline returns every core's op stream, each ending with the op on
// which a cpu.Core with the given budget stops (see budgeted). It draws
// the inline ops and starts the producers its streams need; the caller
// must Stop it.
func (p *Program) Pipeline(budget int64) *Pipeline {
	// A think gap is at least 1, so a core fetches at most budget ops.
	inline := int(max(1, min(budget, inlineOps)))
	units, lineBytes := p.units(), p.par.LineBytes
	pl := &Pipeline{pipes: make([]Pipe, p.cores)}
	payloads := make([]byte, p.cores*lineBytes)
	ops := make([]drawn, p.cores*inline)
	masks := make([]uint64, p.cores*inline*units)
	for c := range pl.pipes {
		pp := &pl.pipes[c]
		pp.prog, pp.core = p, c
		pp.payload = payloads[c*lineBytes : (c+1)*lineBytes : (c+1)*lineBytes]
		pp.first = batch{ops: ops[c*inline : c*inline : (c+1)*inline],
			masks: masks[c*inline*units : c*inline*units : (c+1)*inline*units]}
		p.initGenerator(&pp.gen, c)
		pp.src = budgeted{g: &pp.gen, left: budget}
		pp.src.fill(inline, pp.first.add)
		pp.first.last = pp.src.done
		pp.cur = &pp.first
	}
	// Only once every inline draw is made, so that a panic in one starts
	// no goroutine that the caller could not stop.
	for c := range pl.pipes {
		if pp := &pl.pipes[c]; !pp.src.done {
			pl.start(pp)
		}
	}
	return pl
}

// Source returns core's op source.
func (pl *Pipeline) Source(core int) *Pipe { return &pl.pipes[core] }

// start hands pp's draw state to a new producer goroutine.
func (pl *Pipeline) start(pp *Pipe) {
	if pl.done == nil {
		pl.done = make(chan struct{})
	}
	// Each channel holds every batch of the core, so no send blocks.
	pp.full, pp.free = make(chan *batch, coreBatches), make(chan *batch, coreBatches)
	pl.wg.Add(1)
	go pp.produce(pl.done, &pl.wg)
}

// Stop ends every producer and waits for them to return. It is called
// on the goroutine that reads the Pipes, which must not read them
// after it. Stop may be called more than once, and on a nil Pipeline.
func (pl *Pipeline) Stop() {
	if pl == nil || pl.done == nil {
		return
	}
	close(pl.done)
	pl.done = nil
	pl.wg.Wait()
}

// produce draws pp's stream after the inline ops into recycled
// batches, until the last op or until done is closed. A panic is kept
// for Next to raise on its own goroutine.
func (pp *Pipe) produce(done <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	defer close(pp.full)
	defer func() {
		if r := recover(); r != nil {
			pp.fault = fmt.Sprintf("workload: core %d draw panicked: %v\n%s", pp.core, r, debug.Stack())
		}
	}()
	units := pp.prog.units()
	for range coreBatches {
		pp.free <- &batch{ops: make([]drawn, 0, batchOps), masks: make([]uint64, 0, batchOps*units)}
	}
	for !pp.src.done {
		var b *batch
		select {
		case b = <-pp.free:
		case <-done:
			return
		}
		b.ops, b.masks = b.ops[:0], b.masks[:0]
		pp.src.fill(batchOps, b.add)
		b.last = pp.src.done
		pp.full <- b
	}
}

// Next applies the core's next drawn op. Running past the op the
// stream ends on is a bug in the caller, and panics naming the core and
// op.
func (pp *Pipe) Next() Op {
	if pp.op == len(pp.cur.ops) {
		pp.advance()
	}
	d := pp.cur.ops[pp.op]
	pp.op++
	if d.kind == opRead {
		return Op{Think: d.think, Addr: d.addr}
	}
	units := pp.prog.units()
	masks := pp.cur.masks[pp.mask : pp.mask+units]
	pp.mask += units
	return pp.prog.applyWrite(d, masks, pp.payload)
}

// advance moves Next to the producer's next batch, handing the read one
// back.
func (pp *Pipe) advance() {
	b := pp.cur
	if n := pp.before + len(b.ops); b.last {
		panic(fmt.Sprintf("workload: core %d pipeline ran past its end: op %d of a %d-op stream", pp.core, n, n))
	}
	pp.before += len(b.ops)
	if b != &pp.first {
		pp.free <- b
	}
	b, ok := <-pp.full
	if !ok {
		if pp.fault == "" {
			panic(fmt.Sprintf("workload: core %d pipeline read after Stop", pp.core))
		}
		panic(pp.fault)
	}
	pp.cur, pp.op, pp.mask = b, 0, 0
}
