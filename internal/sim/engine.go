// Package sim provides the deterministic event-driven simulation kernel
// shared by the full-system experiments: a time-ordered event queue with
// stable tie-breaking, so identical inputs always replay identically.
//
// Two queue implementations back the engine (see QueueKind): a
// hierarchical timing wheel with O(1) schedule/advance (the default) and
// the original binary heap. Both pop events in exactly the same
// (time, sequence) order, which the cross-check tests enforce, so every
// Result is bit-identical whichever queue is selected.
package sim

import (
	"fmt"

	"tetriswrite/internal/units"
)

// Event is a callback scheduled at a point in simulated time.
type event struct {
	at   units.Time
	seq  uint64 // insertion order, breaks ties deterministically
	fn   func()
	next *event // intrusive slot-list link (timing wheel only)
}

// eventHeap is a binary min-heap ordered by (at, seq). It backs the
// QueueHeap engine and the timing wheel's far-future overflow.
type eventHeap []*event

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush and heapPop are container/heap without the interface boxing:
// the queue is the engine's innermost loop, so the any round-trips and
// Less/Swap indirection are worth avoiding.
func heapPush(h *eventHeap, ev *event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func heapPop(h *eventHeap) *event {
	s := *h
	n := len(s)
	top := s[0]
	s[0] = s[n-1]
	s[n-1] = nil
	s = s[:n-1]
	*h = s
	// Sift the moved element down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(s) && eventLess(s[l], s[least]) {
			least = l
		}
		if r < len(s) && eventLess(s[r], s[least]) {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}

// Engine runs events in time order. The zero value is ready to use and
// is backed by the timing wheel; NewEngine selects the implementation
// explicitly. Engines are single-threaded: all scheduling must happen
// from event callbacks or before Run.
type Engine struct {
	q       eventQueue
	kind    QueueKind
	now     units.Time
	seq     uint64
	events  uint64
	stopErr error // set by Stop; halts Run/RunContext at the next boundary

	// free recycles event structs between Step and At: a long simulation
	// turns over millions of events whose live population is tiny (the
	// pending queue), so reuse keeps the kernel off the allocator. Only
	// grows to the high-water mark of the pending queue.
	free []*event
}

// NewEngine returns an engine backed by the given queue kind. The empty
// kind selects the timing wheel (the default). It panics on unknown
// kinds — queue selection is configuration, and a typo there should not
// silently fall back.
func NewEngine(kind QueueKind) *Engine {
	if !kind.Valid() {
		panic(fmt.Sprintf("sim: unknown queue kind %q", kind))
	}
	return &Engine{kind: kind}
}

// Queue returns the engine's queue kind (never empty: the zero value
// resolves to QueueWheel).
func (e *Engine) Queue() QueueKind {
	if e.kind == "" {
		return QueueWheel
	}
	return e.kind
}

// queue lazily builds the configured queue, so the zero Engine value
// stays ready to use.
func (e *Engine) queue() eventQueue {
	if e.q == nil {
		if e.kind == QueueHeap {
			e.q = &heapQueue{}
		} else {
			e.q = newTimingWheel()
		}
	}
	return e.q
}

// Now returns the current simulated time.
func (e *Engine) Now() units.Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.events }

// Pending returns the number of events waiting to run.
func (e *Engine) Pending() int {
	if e.q == nil {
		return 0
	}
	return e.q.len()
}

// At schedules fn at absolute time t, which must not precede the current
// time (the simulator has no time machine; scheduling in the past is
// always a component bug, so it panics loudly).
func (e *Engine) At(t units.Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v, before now %v", t, e.now))
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.at, ev.seq, ev.fn, ev.next = t, e.seq, fn, nil
	e.queue().push(ev)
}

// After schedules fn d after the current time.
func (e *Engine) After(d units.Duration, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.At(e.now.Add(d), fn)
}

// Step runs the single earliest event. It reports false when the queue
// is empty.
func (e *Engine) Step() bool {
	ev := e.queue().pop()
	if ev == nil {
		return false
	}
	e.now = ev.at
	e.events++
	fn := ev.fn
	// Recycle before running: the struct is fully extracted, so fn's own
	// At calls may reuse it immediately. Clearing fn releases the
	// closure's captures as soon as the event is done.
	ev.fn = nil
	ev.next = nil
	e.free = append(e.free, ev)
	fn()
	return true
}

// Run executes events until the queue drains, or until Stop is called
// (RunContext additionally supports cancellation and budgets).
func (e *Engine) Run() {
	for e.stopErr == nil && e.Step() {
	}
}

// RunUntil executes events up to and including time t, then stops. Later
// events stay queued; the current time advances to t even if no event
// lands exactly there.
func (e *Engine) RunUntil(t units.Time) {
	q := e.queue()
	for {
		at, ok := q.peek()
		if !ok || at > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor executes events for d of simulated time from now.
func (e *Engine) RunFor(d units.Duration) { e.RunUntil(e.now.Add(d)) }
