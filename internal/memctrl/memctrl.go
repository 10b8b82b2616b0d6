// Package memctrl models the PCM memory controller of the paper's
// Table II: separate 32-entry read and write queues, read-priority
// FR-FCFS scheduling (with no row buffers in the PCM model, this is FCFS
// per bank with reads first), bank-level parallelism across 8 banks, and
// a write-drain policy that services writes only when the write queue
// fills — the behaviour responsible for the paper's observation that
// read-dominant workloads (blackscholes, swaptions) see little write
// latency benefit.
package memctrl

import (
	"fmt"

	"tetriswrite/internal/guard"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/stats"
	"tetriswrite/internal/units"
)

// The queues of the paper's Table II: 32 read and 32 write entries. A
// drain starts when the write queue is full and stops at DrainLow.
const (
	ReadQueue  = 32 // read queue capacity
	WriteQueue = 32 // write queue capacity
	DrainLow   = 16 // write-queue depth at which a drain stops
)

// Config tunes the controller. Zero values take the paper's defaults via
// Normalize.
type Config struct {
	// OpportunisticWrites lets idle banks service writes even when no
	// drain is active and no read wants them (ablation; the paper's
	// controller services writes only on a full write queue).
	OpportunisticWrites bool
	// DisableCoalescing stops the controller from merging a new write
	// with a queued write to the same line (coalescing is on by default,
	// as in real write buffers).
	DisableCoalescing bool
	// WritePausing lets a read interrupt an in-flight write at the next
	// sub-write-unit boundary (one Treset away), stealing the bank for
	// TRead and then resuming the write's remainder — the write-pausing
	// technique of Qureshi et al. (HPCA'10), which the paper cites as the
	// reason writes are "not on the critical path". Off by default (the
	// paper's controller does not pause).
	WritePausing bool
	// Subarrays models subarray-level parallelism inside a bank (the
	// paper's references [13][15]): reads to a different subarray may
	// proceed while a write occupies the bank, because only the write
	// driver and its subarray's sense path are tied up. 1 (the default)
	// is the paper's monolithic bank; writes always need the whole bank.
	Subarrays int
	// VerifyWrites enables iterative program-and-verify: after a write's
	// pulses complete, the controller reads the line back (TRead, charged
	// to the bank), compares against the intended data, and re-pulses
	// only the mismatched cells — DCW-style, so retries are cheap — up to
	// VerifyRetries times before escalating to a hard error. Off by
	// default: the ideal device never miswrites, and verify would only
	// add overhead. Enable together with a pcm.FaultModel on the device.
	VerifyWrites bool
	// VerifyRetries is the per-write retry budget of the verify loop
	// (default 3, the typical iterative-write bound of PCM controllers).
	VerifyRetries int
}

// Normalize fills defaults in place. It is idempotent: normalizing an
// already-normalized config changes nothing.
func (c *Config) Normalize() {
	if c.Subarrays <= 0 {
		c.Subarrays = 1
	}
	if c.VerifyRetries <= 0 {
		c.VerifyRetries = 3
	}
}

type request struct {
	write bool
	addr  pcm.LineAddr
	// bank and sub are where addr lives, placed once at enqueue so the
	// scheduler's per-entry checks compare fields instead of dividing.
	bank     *bank
	sub      int
	data     []byte
	enqueued units.Time
	onDone   func(at units.Time)
	// onData is the read-completion callback, stored directly (no
	// wrapper closure). The data slice it receives is the controller's
	// shared scratch buffer, valid only for the duration of the call.
	onData func(at units.Time, data []byte)
}

// Stats aggregates controller activity. Latencies are measured from
// enqueue to completion, the quantity the paper's Figures 11 and 12
// report.
type Stats struct {
	Reads            int64
	Writes           int64
	ForwardedReads   int64
	Coalesced        int64
	ReadLatency      stats.Latency
	WriteLatency     stats.Latency
	WriteUnits       float64 // accumulated Figure 10 metric
	BitSets          int64
	BitResets        int64
	Drains           int64
	DrainExits       int64 // drains that ended by reaching the low-water mark
	StallRejects     int64 // submissions rejected because a queue was full
	Pauses           int64 // writes paused to service a read
	Cancellations    int64 // always 0; kept only because the bench digest hashes it
	Presets          int64 // always 0; kept only because the bench digest hashes it
	PresetDropped    int64 // always 0; kept only because the bench digest hashes it
	SubarrayOverlaps int64 // reads serviced while a write held the bank

	// Write-verify activity (all zero unless Config.VerifyWrites).
	Verifies       int64          // verify read-backs performed
	Retries        int64          // re-pulse rounds after a failed verify
	RetrySets      int64          // SET pulses driven by retries
	RetryResets    int64          // RESET pulses driven by retries
	HardErrors     int64          // writes that never verified within budget
	VerifyOverhead units.Duration // bank time spent on verify reads and retry pulses
}

// Controller is the memory controller plus its banks. It is driven
// entirely by the simulation engine; all methods must be called from the
// engine's goroutine (event callbacks).
type Controller struct {
	eng *sim.Engine
	par pcm.Params
	cfg Config
	dev *pcm.Device
	// fwdLatency is the latency of serving a read from the write queue
	// (store-to-load forwarding): one memory bus cycle.
	fwdLatency units.Duration

	banks []*bank
	// Reads queue per bank (the global FIFO filtered by owning bank —
	// the scheduler only ever consumed it that way, so the split is
	// order-identical and turns startReads' global scan into a scan of
	// the bank's own queue). nreadQ is the global occupancy the 32-entry
	// queue bound and the depth telemetry are defined over.
	nreadQ int
	writeQ []*request

	draining  bool
	spaceWait []func() // woken (once each) when write-queue space appears
	idleWait  []func() // woken when everything drains
	stats     Stats

	// wear, when attached, receives the scheme's actual pulse count per
	// line write — the endurance-relevant quantity (redundant pulses of
	// non-comparing schemes wear cells even when the value is unchanged).
	wear *pcm.WearTracker

	// guard, when attached, validates the runtime invariants (power
	// budget, pulse coverage, queue bounds, clock monotonicity) on every
	// issued plan and submission. A nil guard costs nothing.
	guard *guard.Guard

	// onHardError, when set, receives every write the verify loop gave
	// up on: the physical line and the data that should have landed. The
	// spare remapper (fault.SpareRemapper) registers here to redirect the
	// line; without a handler hard errors are only counted.
	onHardError func(addr pcm.LineAddr, want []byte)

	// crash, when attached, observes every write's issue and completion
	// boundaries for the power-failure substrate. A nil hook costs one
	// branch per write and changes nothing.
	crash CrashHook

	// fp labels this run for attributable errors (verify exhaustion,
	// crash-recovery reissue failures); zero value when never set.
	fp guard.Fingerprint

	// verifyErrs retains the first few typed verify-exhaustion errors
	// (the counter c.stats.HardErrors keeps the full tally).
	verifyErrs []*VerifyExhaustedError

	// Per-write bookkeeping freelists and scratch. The controller runs
	// on the single engine goroutine, so plain slices beat sync.Pool:
	// deterministic, no locks, no per-P caches. reqFree recycles request
	// structs and dataFree their line-sized payload copies; recycling
	// happens in finish, after which stale bank events reject the reused
	// pointer via the generation counter. oldBuf and verifyBuf back the
	// synchronous read-modify snapshots of startWrite and the verify
	// loop — never retained across events.
	reqFree   freelist[*request]
	dataFree  freelist[[]byte]
	oldBuf    []byte
	verifyBuf []byte
	// readBuf backs read-completion payloads: the device image is read
	// into it synchronously and handed to the callback, which must copy
	// if it retains (every in-tree caller consumes it in place).
	readBuf []byte
	// readEvFree, writeEvFree and fwdEvFree recycle completion event
	// structs, each carrying its own prebound fire closure so arming a
	// read, write or forwarded-read completion costs no allocation.
	readEvFree  freelist[*readEvent]
	writeEvFree freelist[*writeEvent]
	fwdEvFree   freelist[*forwardEvent]
}

// freelist is a LIFO of recycled values.
type freelist[T any] []T

// pop takes the most recently pushed value, if any.
func (f *freelist[T]) pop() (v T, ok bool) {
	n := len(*f) - 1
	if n < 0 {
		return v, false
	}
	v = (*f)[n]
	var zero T
	(*f)[n] = zero
	*f = (*f)[:n]
	return v, true
}

// push returns v to the list.
func (f *freelist[T]) push(v T) { *f = append(*f, v) }

// SetWearTracker attaches per-line pulse accounting.
func (c *Controller) SetWearTracker(w *pcm.WearTracker) { c.wear = w }

// SetGuard attaches the runtime invariant checker. Checks only read
// state, so an attached guard never changes simulated behaviour.
func (c *Controller) SetGuard(g *guard.Guard) { c.guard = g }

// guardQueues reports the current queue occupancies to the guard.
func (c *Controller) guardQueues() {
	c.guard.CheckQueues(c.eng.Now(), c.nreadQ, len(c.writeQ), ReadQueue, WriteQueue)
}

// CrashHook observes the two durability boundaries of every line write
// the controller issues. WriteStarted runs at issue time, after the
// plan is validated and before its pulse buffer is recycled — old, want
// and plan.Pulses are only valid for the duration of the call and must
// be copied if retained. WriteCompleted runs at the completion
// boundary, before the acknowledgement; returning false means power was
// lost at that exact boundary — the controller releases the bank but
// the acknowledgement never fires. crash.Injector is the one
// implementation.
type CrashHook interface {
	WriteStarted(addr pcm.LineAddr, old, want []byte, plan schemes.Plan, now units.Time)
	WriteCompleted(addr pcm.LineAddr) bool
}

// SetCrash attaches the power-failure hook. The hook assumes a frozen
// pulse schedule, so the controller must not pause: system.Config.Validate
// rejects pausing together with crash injection.
func (c *Controller) SetCrash(h CrashHook) { c.crash = h }

// SetFingerprint labels the run for attributable typed errors.
func (c *Controller) SetFingerprint(fp guard.Fingerprint) { c.fp = fp }

// VerifyExhaustedError identifies one write the program-and-verify loop
// gave up on, carrying the guard-style run fingerprint so a hard error
// inside a sweep — or a crash-recovery reissue that never converged —
// is attributable to an exact (seed, workload, scheme, cycle, line).
type VerifyExhaustedError struct {
	Fp         guard.Fingerprint
	Addr       pcm.LineAddr
	Attempts   int // verify rounds performed, including the first
	Mismatched int // cells still wrong after the last retry
}

func (e *VerifyExhaustedError) Error() string {
	return fmt.Sprintf("memctrl: verify exhausted after %d attempts on line %d (%d cells still wrong) [%s]",
		e.Attempts, e.Addr, e.Mismatched, e.Fp)
}

// VerifyErrors returns the retained typed verify-exhaustion errors (at
// most a handful; Stats().HardErrors has the full count).
func (c *Controller) VerifyErrors() []*VerifyExhaustedError { return c.verifyErrs }

// SetHardErrorHandler registers the escalation callback of the verify
// loop. The handler runs in the engine goroutine, before the failed
// write's own completion callback, so redirects it installs are visible
// to whatever that callback submits next.
func (c *Controller) SetHardErrorHandler(fn func(addr pcm.LineAddr, want []byte)) {
	c.onHardError = fn
}

type bank struct {
	scheme schemes.Scheme
	// recycler is scheme's PlanRecycler side, if it has one: plans are
	// handed back as soon as the controller has extracted what it needs
	// (service time, counts), so steady-state planning reuses one buffer.
	recycler schemes.PlanRecycler
	// write is the in-flight write, if any; reads[sub] is
	// the subarray's in-flight read (nreads counts them). With
	// Subarrays == 1 the two are mutually exclusive (monolithic bank);
	// with more, reads may overlap a write in a different subarray.
	write  *request
	reads  []*request
	nreads int
	// readQ is this bank's slice of the controller's read FIFO.
	readQ []*request
	// Write-pausing state: gen invalidates stale completion events after
	// a pause extends the write; writeEnd is the current scheduled
	// completion; pausing guards against double-pausing.
	gen      uint64
	writeEnd units.Time
	pausing  bool
	// verifying marks the program-and-verify tail of a write: the bank
	// is still held by the write but its pulses are done, so pausing (a
	// pulse-boundary mechanism) no longer applies.
	verifying bool
	// busyTime accumulates array occupancy for the utilization report.
	busyTime units.Duration
}

// idle reports whether nothing at all is in flight on the bank.
func (b *bank) idle() bool { return b.write == nil && b.nreads == 0 }

// New builds a controller over the device using one scheme instance per
// bank.
func New(eng *sim.Engine, dev *pcm.Device, factory schemes.Factory, cfg Config) *Controller {
	par := dev.Params()
	insts := make([]schemes.Scheme, par.NumBanks)
	for i := range insts {
		insts[i] = factory(par)
	}
	return NewWithSchemes(eng, dev, insts, cfg)
}

// NewWithSchemes builds a controller over pre-built per-bank scheme
// instances (one per bank, index = bank). Crash recovery resumes a run
// this way: the recovered scheme instances carry the coding state that
// matches the surviving device image, so a fresh factory would decode
// the array wrong.
func NewWithSchemes(eng *sim.Engine, dev *pcm.Device, insts []schemes.Scheme, cfg Config) *Controller {
	par := dev.Params()
	if len(insts) != par.NumBanks {
		panic(fmt.Sprintf("memctrl: %d scheme instances for %d banks", len(insts), par.NumBanks))
	}
	cfg.Normalize()
	c := &Controller{eng: eng, par: par, cfg: cfg, dev: dev, fwdLatency: par.MemClock.Period()}
	for _, s := range insts {
		b := &bank{scheme: s, reads: make([]*request, cfg.Subarrays)}
		b.recycler, _ = b.scheme.(schemes.PlanRecycler)
		c.banks = append(c.banks, b)
	}
	return c
}

// Schemes returns the per-bank scheme instances (index = bank). The
// crash injector binds to them, and recovery hands them to a resumed
// controller via NewWithSchemes.
func (c *Controller) Schemes() []schemes.Scheme {
	out := make([]schemes.Scheme, len(c.banks))
	for i, b := range c.banks {
		out[i] = b.scheme
	}
	return out
}

// newRequest takes a request struct from the freelist (or the heap).
func (c *Controller) newRequest() *request {
	if req, ok := c.reqFree.pop(); ok {
		return req
	}
	return &request{}
}

// newData takes a line-sized payload buffer from the freelist.
func (c *Controller) newData() []byte {
	if buf, ok := c.dataFree.pop(); ok {
		return buf
	}
	return make([]byte, c.par.LineBytes)
}

// recycleRequest returns a finished request and its payload to the
// freelists. Stale completion/pause events may still hold the pointer,
// but every such event validates the bank's generation counter (which
// only ever increments) before touching it, so reuse cannot be confused
// with the request's previous life.
func (c *Controller) recycleRequest(req *request) {
	if req.data != nil {
		c.dataFree.push(req.data)
	}
	*req = request{}
	c.reqFree.push(req)
}

// Params returns the device parameters the controller was built with.
func (c *Controller) Params() pcm.Params { return c.par }

// Stats returns a snapshot of the controller statistics.
func (c *Controller) Stats() Stats { return c.stats }

// place returns the bank a line lives in (lines interleave across banks)
// and its subarray within that bank.
func (c *Controller) place(addr pcm.LineAddr) (b *bank, sub int) {
	n := int64(len(c.banks))
	row := int64(addr) / n
	b = c.banks[int64(addr)-row*n]
	if c.cfg.Subarrays > 1 {
		sub = int(row % int64(c.cfg.Subarrays))
	}
	return b, sub
}

// SubmitRead enqueues a read. It returns false (and records a stall) if
// the read queue is full; the caller should retry after other activity,
// e.g. via WhenWriteSpace or a later event.
//
// The data slice handed to onDone is only valid for the duration of the
// callback — the controller reuses the buffer for later reads — so
// callers that retain it must copy.
func (c *Controller) SubmitRead(addr pcm.LineAddr, onDone func(at units.Time, data []byte)) bool {
	if c.nreadQ >= ReadQueue {
		c.stats.StallRejects++
		return false
	}
	c.stats.Reads++
	b, sub := c.place(addr)
	// Store-to-load forwarding: the freshest matching write wins.
	if d := c.forwardData(addr, b); d != nil {
		c.stats.ForwardedReads++
		ev := c.newForwardEvent()
		ev.at = c.eng.Now().Add(c.fwdLatency)
		ev.data = c.newData()
		copy(ev.data, d)
		ev.onDone = onDone
		c.eng.At(ev.at, ev.fire)
		return true
	}
	req := c.newRequest()
	req.addr, req.bank, req.sub = addr, b, sub
	req.enqueued = c.eng.Now()
	req.onData = onDone
	b.readQ = append(b.readQ, req)
	c.nreadQ++
	c.guardQueues()
	c.scheduleBank(b)
	return true
}

// forwardData returns the data of the youngest pending or in-flight write
// to addr, which lives in bank b, or nil.
func (c *Controller) forwardData(addr pcm.LineAddr, b *bank) []byte {
	for i := len(c.writeQ) - 1; i >= 0; i-- {
		if c.writeQ[i].addr == addr {
			return c.writeQ[i].data
		}
	}
	if b.write != nil && b.write.addr == addr {
		return b.write.data
	}
	return nil
}

// SubmitWrite enqueues a write of data (copied) to addr. It returns false
// if the write queue is full; the caller should stall and retry from a
// WhenWriteSpace callback.
func (c *Controller) SubmitWrite(addr pcm.LineAddr, data []byte, onDone func(at units.Time)) bool {
	if len(data) != c.par.LineBytes {
		panic(fmt.Sprintf("memctrl: write of %d bytes, line is %d", len(data), c.par.LineBytes))
	}
	if !c.cfg.DisableCoalescing {
		for _, r := range c.writeQ {
			if r.addr == addr {
				copy(r.data, data)
				c.stats.Coalesced++
				c.stats.Writes++
				if onDone != nil {
					prev := r.onDone
					r.onDone = func(at units.Time) {
						if prev != nil {
							prev(at)
						}
						onDone(at)
					}
				}
				return true
			}
		}
	}
	if len(c.writeQ) >= WriteQueue {
		c.stats.StallRejects++
		return false
	}
	c.stats.Writes++
	req := c.newRequest()
	req.write = true
	req.addr = addr
	req.bank, req.sub = c.place(addr)
	req.data = c.newData()
	copy(req.data, data)
	req.enqueued = c.eng.Now()
	if onDone != nil {
		req.onDone = onDone
	}
	c.writeQ = append(c.writeQ, req)
	c.guardQueues()
	if len(c.writeQ) >= WriteQueue && !c.draining {
		// Queue just filled: enter drain mode. The drain makes every
		// bank write-eligible at once, so this is the one submission
		// that needs the full sweep.
		c.draining = true
		c.stats.Drains++
		c.schedule()
		return true
	}
	// A queued write can only ever dispatch to its owning bank.
	c.scheduleBank(req.bank)
	return true
}

// WhenWriteSpace registers fn to run (once) the next time write-queue
// space frees up. If space exists now, fn runs on the next event.
func (c *Controller) WhenWriteSpace(fn func()) {
	if len(c.writeQ) < WriteQueue {
		c.eng.After(0, fn)
		return
	}
	c.spaceWait = append(c.spaceWait, fn)
}

// WhenIdle registers fn to run once both queues are empty and all banks
// are idle. Used to flush at the end of a simulation; entering this state
// force-drains remaining writes.
func (c *Controller) WhenIdle(fn func()) {
	c.idleWait = append(c.idleWait, fn)
	c.draining = true // flush whatever is left
	c.schedule()
	c.checkIdle()
}

func (c *Controller) checkIdle() {
	if c.nreadQ != 0 || len(c.writeQ) != 0 {
		return
	}
	for _, b := range c.banks {
		if !b.idle() {
			return
		}
	}
	waiters := c.idleWait
	c.idleWait = nil
	for _, fn := range waiters {
		c.eng.After(0, fn)
	}
}

// schedule hands work to every bank according to the policy: oldest
// serviceable read first (reads may overlap a write in another subarray
// when Subarrays > 1); writes only on a fully idle bank, and only while
// draining (or opportunistically, if configured).
func (c *Controller) schedule() {
	for _, b := range c.banks {
		c.scheduleBank(b)
	}
}

// scheduleBank runs the policy for the one bank whose eligibility an
// event changed. Every other bank is a fixed point — its last schedule
// pass found nothing startable and none of its inputs moved — so
// skipping it arms exactly the events the full sweep would.
func (c *Controller) scheduleBank(b *bank) {
	c.startReads(b)
	if b.write != nil {
		c.tryPause(b)
		return
	}
	if !b.idle() {
		return
	}
	if req := c.pickWrite(b); req != nil {
		c.startWrite(b, req)
	}
}

// startReads launches every queued read this bank can service right now.
// It bails out as soon as the bank is saturated (every subarray busy, or
// a monolithic bank held by a write), so a busy bank costs O(1) instead
// of a full queue scan.
func (c *Controller) startReads(b *bank) {
	for i := 0; i < len(b.readQ); {
		if b.nreads == c.cfg.Subarrays || (b.write != nil && c.cfg.Subarrays <= 1) {
			return
		}
		r := b.readQ[i]
		if !c.canRead(b, r) {
			i++
			continue
		}
		b.readQ = append(b.readQ[:i], b.readQ[i+1:]...)
		c.nreadQ--
		c.startRead(b, r)
	}
}

// canRead reports whether the read's subarray is free and not blocked by
// the in-flight write.
func (c *Controller) canRead(b *bank, r *request) bool {
	if b.reads[r.sub] != nil {
		return false
	}
	if b.write == nil {
		return true
	}
	if c.cfg.Subarrays <= 1 {
		return false
	}
	return b.write.sub != r.sub
}

func (c *Controller) pickWrite(b *bank) *request {
	if !c.draining && !c.cfg.OpportunisticWrites {
		return nil
	}
	for i, r := range c.writeQ {
		if r.bank == b {
			c.writeQ = append(c.writeQ[:i], c.writeQ[i+1:]...)
			c.noteWriteSpace()
			return r
		}
	}
	return nil
}

// noteWriteSpace wakes space waiters and ends a drain that reached its
// low-water mark.
func (c *Controller) noteWriteSpace() {
	if c.draining && len(c.writeQ) <= DrainLow && len(c.idleWait) == 0 {
		c.draining = false
		c.stats.DrainExits++
	}
	// After only schedules, so no waiter re-registers during the loop
	// and the slice can be reused.
	for _, fn := range c.spaceWait {
		c.eng.After(0, fn)
	}
	clear(c.spaceWait)
	c.spaceWait = c.spaceWait[:0]
}

// readEvent is one armed read completion. The struct (and its prebound
// fire closure) is recycled through the controller's freelist, so the
// per-read completion costs no allocation.
type readEvent struct {
	c    *Controller
	b    *bank
	req  *request
	sub  int
	done units.Time
	fire func()
}

func (c *Controller) newReadEvent() *readEvent {
	if ev, ok := c.readEvFree.pop(); ok {
		return ev
	}
	ev := &readEvent{c: c}
	ev.fire = ev.run
	return ev
}

func (ev *readEvent) run() {
	c, b, req, sub, done := ev.c, ev.b, ev.req, ev.sub, ev.done
	// Recycle before finish: the callback may start new reads that want
	// the struct back.
	ev.b, ev.req = nil, nil
	c.readEvFree.push(ev)
	b.reads[sub] = nil
	b.nreads--
	c.finish(req, done)
}

// forwardEvent is one armed forwarded-read completion, recycled like
// readEvent. Its payload is a snapshot of the forwarding write's data in
// a buffer from the payload freelist, returned there once the callback
// has consumed it.
type forwardEvent struct {
	c      *Controller
	at     units.Time
	data   []byte
	onDone func(at units.Time, data []byte)
	fire   func()
}

func (c *Controller) newForwardEvent() *forwardEvent {
	if ev, ok := c.fwdEvFree.pop(); ok {
		return ev
	}
	ev := &forwardEvent{c: c}
	ev.fire = ev.run
	return ev
}

func (ev *forwardEvent) run() {
	c, at, data, onDone := ev.c, ev.at, ev.data, ev.onDone
	// Recycle before the callback, which may forward further reads.
	ev.data, ev.onDone = nil, nil
	c.fwdEvFree.push(ev)
	c.stats.ReadLatency.Add(c.fwdLatency)
	onDone(at, data)
	c.dataFree.push(data)
}

func (c *Controller) startRead(b *bank, req *request) {
	sub := req.sub
	b.reads[sub] = req
	b.nreads++
	if b.write != nil {
		c.stats.SubarrayOverlaps++
	}
	svc := c.par.TRead
	b.busyTime += svc
	done := c.eng.Now().Add(svc)
	ev := c.newReadEvent()
	ev.b, ev.req, ev.sub, ev.done = b, req, sub, done
	c.eng.At(done, ev.fire)
}

func (c *Controller) startWrite(b *bank, req *request) {
	b.write = req
	if c.oldBuf == nil {
		c.oldBuf = make([]byte, c.par.LineBytes)
	}
	old := c.oldBuf // synchronous use only: released before the next event
	c.dev.PeekLine(req.addr, old)
	plan := b.scheme.PlanWrite(req.addr, old, req.data)
	c.guard.CheckWritePlan(c.eng.Now(), req.addr, old, req.data, plan)
	sets, resets := plan.Sets, plan.Resets
	c.stats.BitSets += int64(sets)
	c.stats.BitResets += int64(resets)
	c.stats.WriteUnits += plan.WriteUnits()
	if c.wear != nil {
		c.wear.Record(req.addr, sets+resets)
	}
	svc := plan.ServiceTime()
	b.busyTime += svc
	b.writeEnd = c.eng.Now().Add(svc)
	if c.crash != nil {
		// Arm the write's intent while the plan is still alive: the hook
		// copies whatever it keeps, the recycler below reuses the buffer.
		c.crash.WriteStarted(req.addr, old, req.data, plan, c.eng.Now())
	}
	// Everything the controller needs from the plan is extracted: hand
	// the pulse buffer back to the scheme for the next write.
	if b.recycler != nil {
		b.recycler.RecyclePlan(plan)
	}
	c.scheduleWriteCompletion(b, req)
}

// writeEvent is one armed write completion, recycled like readEvent so
// the steady-state write path allocates nothing per completion. The
// generation check preserves the self-invalidation of pause.
type writeEvent struct {
	c    *Controller
	b    *bank
	req  *request
	end  units.Time
	gen  uint64
	fire func()
}

func (c *Controller) newWriteEvent() *writeEvent {
	if ev, ok := c.writeEvFree.pop(); ok {
		return ev
	}
	ev := &writeEvent{c: c}
	ev.fire = ev.run
	return ev
}

func (ev *writeEvent) run() {
	c, b, req, end, gen := ev.c, ev.b, ev.req, ev.end, ev.gen
	// Recycle before completing: the completion path may start the next
	// write, which wants the struct back.
	ev.b, ev.req = nil, nil
	c.writeEvFree.push(ev)
	if b.gen != gen || b.write != req {
		return
	}
	c.dev.WriteLine(req.addr, req.data)
	if c.cfg.VerifyWrites {
		// The array may not hold what was driven (stuck cells,
		// transient failures): enter the program-and-verify tail
		// before releasing the bank.
		c.startVerify(b, req, 0)
		return
	}
	c.completeWrite(b, req, end)
}

// scheduleWriteCompletion arms the completion event for the bank's
// in-flight write at its current writeEnd. The event self-invalidates if
// a pause has re-scheduled the write since.
func (c *Controller) scheduleWriteCompletion(b *bank, req *request) {
	ev := c.newWriteEvent()
	ev.b, ev.req, ev.end, ev.gen = b, req, b.writeEnd, b.gen
	c.eng.At(ev.end, ev.fire)
}

// completeWrite releases the bank and finishes the write request.
func (c *Controller) completeWrite(b *bank, req *request, at units.Time) {
	b.write = nil
	b.verifying = false
	b.gen++ // invalidate any in-flight pause boundary events
	if c.crash != nil && !c.crash.WriteCompleted(req.addr) {
		// Power was lost at this exact boundary: the write is durable
		// but its acknowledgement never happens. The stopping engine
		// unwinds the rest.
		return
	}
	c.finish(req, at)
}

// startVerify runs one iteration of the program-and-verify loop: a
// read-back (TRead) compares the array against the intended data; if
// cells mismatch, exactly those cells are re-pulsed (the device's
// differential write drives only changed bits, so a retry under DCW-style
// schemes costs one short pulse wave, not a full rewrite) and the verify
// repeats, up to the configured budget. A write that never verifies
// escalates to a hard error for the sparing layer to absorb.
func (c *Controller) startVerify(b *bank, req *request, attempt int) {
	b.verifying = true
	c.stats.Verifies++
	c.stats.VerifyOverhead += c.par.TRead
	b.busyTime += c.par.TRead
	done := c.eng.Now().Add(c.par.TRead)
	gen := b.gen
	c.eng.At(done, func() {
		if b.gen != gen || b.write != req {
			return
		}
		if c.verifyBuf == nil {
			c.verifyBuf = make([]byte, c.par.LineBytes)
		}
		got := c.verifyBuf // synchronous use only
		c.dev.PeekLine(req.addr, got)
		sets, resets := mismatchCounts(got, req.data)
		if sets == 0 && resets == 0 {
			c.completeWrite(b, req, done)
			return
		}
		if attempt >= c.cfg.VerifyRetries {
			c.stats.HardErrors++
			if len(c.verifyErrs) < 16 {
				fp := c.fp
				fp.Cycle = done
				c.verifyErrs = append(c.verifyErrs, &VerifyExhaustedError{
					Fp: fp, Addr: req.addr, Attempts: attempt + 1, Mismatched: sets + resets,
				})
			}
			// Escalate before completing: the sparing layer installs its
			// redirect first, so anything the completion callback submits
			// already sees the remapped line.
			if c.onHardError != nil {
				c.onHardError(req.addr, req.data)
			}
			c.completeWrite(b, req, done)
			return
		}
		// Re-pulse only the mismatched cells: WriteLine diffs against
		// the stored image, so exactly those bits are driven again. The
		// wave costs TSet if any cell needs setting (SETs dominate the
		// wave, the PCM time asymmetry), else TReset — and real energy
		// and wear, charged like first-attempt pulses.
		c.stats.Retries++
		c.stats.RetrySets += int64(sets)
		c.stats.RetryResets += int64(resets)
		c.stats.BitSets += int64(sets)
		c.stats.BitResets += int64(resets)
		if c.wear != nil {
			c.wear.Record(req.addr, sets+resets)
		}
		pulse := c.par.TReset
		if sets > 0 {
			pulse = c.par.TSet
		}
		c.stats.VerifyOverhead += pulse
		b.busyTime += pulse
		pulsed := done.Add(pulse)
		c.eng.At(pulsed, func() {
			if b.gen != gen || b.write != req {
				return
			}
			c.dev.WriteLine(req.addr, req.data)
			c.startVerify(b, req, attempt+1)
		})
	})
}

// mismatchCounts counts the cells where got differs from want, split by
// the direction a corrective pulse must drive (set: 0->1, reset: 1->0).
func mismatchCounts(got, want []byte) (sets, resets int) {
	for i := range got {
		diff := got[i] ^ want[i]
		setMask := diff & want[i]
		resetMask := diff & got[i]
		for m := setMask; m != 0; m &= m - 1 {
			sets++
		}
		for m := resetMask; m != 0; m &= m - 1 {
			resets++
		}
	}
	return sets, resets
}

// tryPause interrupts the bank's in-flight write for the oldest read
// targeting it, if write pausing is enabled and worthwhile.
func (c *Controller) tryPause(b *bank) {
	if !c.cfg.WritePausing || b.pausing || b.write == nil || b.verifying {
		return
	}
	if !c.hasBlockedReadFor(b) {
		return
	}
	// The current sub-write-unit must drain before the bank can switch:
	// the pause point is one Treset away. Not worth it if the write
	// finishes first.
	boundary := c.eng.Now().Add(c.par.TReset)
	if boundary >= b.writeEnd {
		return
	}
	b.pausing = true
	req := b.write
	gen := b.gen
	c.eng.At(boundary, func() {
		if b.gen != gen || b.write != req {
			b.pausing = false
			return
		}
		r := c.popBlockedReadFor(b)
		if r == nil {
			b.pausing = false
			return
		}
		c.stats.Pauses++
		// Invalidate the write's original completion event NOW: it could
		// otherwise fire inside the pause window and complete a write
		// that is supposed to be suspended.
		b.gen++
		remaining := b.writeEnd.Sub(boundary)
		readDone := boundary.Add(c.par.TRead)
		c.eng.At(readDone, func() {
			c.stats.ReadLatency.Add(readDone.Sub(r.enqueued))
			c.deliverRead(r, readDone)
			c.recycleRequest(r)
			// Resume the write: its remainder executes after the read.
			b.writeEnd = readDone.Add(remaining)
			b.pausing = false
			c.scheduleWriteCompletion(b, req)
			c.scheduleBank(b) // another read may want to pause again
		})
	})
}

// blockedBy reports whether a queued read is blocked specifically by the
// bank's in-flight write (same subarray, or a monolithic bank).
func (c *Controller) blockedBy(b *bank, r *request) bool {
	if b.write == nil {
		return false
	}
	return c.cfg.Subarrays <= 1 || b.write.sub == r.sub
}

func (c *Controller) hasBlockedReadFor(b *bank) bool {
	for _, r := range b.readQ {
		if c.blockedBy(b, r) {
			return true
		}
	}
	return false
}

func (c *Controller) popBlockedReadFor(b *bank) *request {
	for i, r := range b.readQ {
		if c.blockedBy(b, r) {
			b.readQ = append(b.readQ[:i], b.readQ[i+1:]...)
			c.nreadQ--
			return r
		}
	}
	return nil
}

// deliverRead reads the line's device image into the shared scratch
// buffer and hands it to the read's callback. The buffer is reused for
// the next read, so callbacks must copy if they retain it.
func (c *Controller) deliverRead(req *request, at units.Time) {
	if req.onData == nil {
		return
	}
	if c.readBuf == nil {
		c.readBuf = make([]byte, c.par.LineBytes)
	}
	c.dev.ReadLine(req.addr, c.readBuf)
	req.onData(at, c.readBuf)
}

// finish completes a request: latency accounting, callback, rescheduling.
// The caller has already released the bank resource the request held.
func (c *Controller) finish(req *request, at units.Time) {
	c.guard.CheckClock(at)
	lat := at.Sub(req.enqueued)
	if req.write {
		c.stats.WriteLatency.Add(lat)
		if req.onDone != nil {
			req.onDone(at)
		}
	} else {
		c.stats.ReadLatency.Add(lat)
		c.deliverRead(req, at)
	}
	// Completion frees resources on the request's own bank only.
	c.scheduleBank(req.bank)
	c.checkIdle()
	c.recycleRequest(req)
}

// Snoop copies the freshest value of a line into dst, exactly as the
// controller's own read-forwarding logic would see it: the youngest
// queued or in-flight write's data if any, else the stored device
// contents. Wear-leveling gap moves use it to snapshot a line without
// losing queued updates.
func (c *Controller) Snoop(addr pcm.LineAddr, dst []byte) {
	b, _ := c.place(addr)
	if d := c.forwardData(addr, b); d != nil {
		copy(dst, d)
		return
	}
	c.dev.PeekLine(addr, dst)
}

// QueueDepths reports the current read and write queue occupancy, for
// tests and debugging.
func (c *Controller) QueueDepths() (reads, writes int) {
	return c.nreadQ, len(c.writeQ)
}

// BankUtilization returns each bank's array occupancy as a fraction of
// the elapsed simulated time (can exceed 1 with subarray overlap).
func (c *Controller) BankUtilization() []float64 {
	now := units.Duration(c.eng.Now())
	out := make([]float64, len(c.banks))
	if now == 0 {
		return out
	}
	for i, b := range c.banks {
		out[i] = float64(b.busyTime) / float64(now)
	}
	return out
}

// Draining reports whether a write drain is in progress.
func (c *Controller) Draining() bool { return c.draining }
