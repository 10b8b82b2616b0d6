// Package sim provides the deterministic event-driven simulation kernel
// shared by the full-system experiments: a time-ordered event queue with
// stable tie-breaking, so identical inputs always replay identically.
//
// The queue is one binary min-heap of inline (at, seq, fn) values,
// ordered by time and then by scheduling order. A full-system run keeps
// only a handful of events pending (the cores' outstanding accesses and
// the banks' in-flight operations), and at that size a small flat heap
// is cheaper than a bucketed queue such as a timing wheel; DESIGN.md
// records the measurement.
//
// An Engine is single-threaded: one goroutine schedules and runs all of
// its events, and the components it drives rely on that (see the
// single-writer notes in pcm and stats).
package sim

import (
	"fmt"

	"tetriswrite/internal/units"
)

// event is a callback scheduled at a point in simulated time.
type event struct {
	at  units.Time
	seq uint64 // insertion order, breaks ties deterministically
	fn  func()
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// QueueKind names the event queue in configurations and in the fleet
// wire format. The simulator has one queue, and every valid name
// selects it.
type QueueKind string

const (
	// QueueWheel is the default name; the empty string means it too.
	QueueWheel QueueKind = "wheel"
	// QueueHeap is the other accepted name.
	QueueHeap QueueKind = "heap"
)

// Valid reports whether k is a known queue name. The empty kind is
// valid.
func (k QueueKind) Valid() bool {
	switch k {
	case "", QueueWheel, QueueHeap:
		return true
	}
	return false
}

// Engine runs events in time order. The zero value is ready to use.
// Engines are single-threaded: all scheduling must happen from event
// callbacks or before Run.
type Engine struct {
	q       []event // binary min-heap by (at, seq)
	now     units.Time
	seq     uint64
	events  uint64
	stopErr error // set by Stop; halts Run/RunContext at the next boundary
}

// NewEngine returns an empty engine. Every valid kind selects the same
// queue; it panics on unknown kinds, so a typo in a configuration does
// not pass silently.
func NewEngine(kind QueueKind) *Engine {
	if !kind.Valid() {
		panic(fmt.Sprintf("sim: unknown queue kind %q", kind))
	}
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() units.Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.events }

// Pending returns the number of events waiting to run.
func (e *Engine) Pending() int { return len(e.q) }

// At schedules fn at absolute time t, which must not precede the current
// time (the simulator has no time machine; scheduling in the past is
// always a component bug, so it panics loudly).
func (e *Engine) At(t units.Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v, before now %v", t, e.now))
	}
	e.seq++
	ev := event{at: t, seq: e.seq, fn: fn}
	// Sift up with a hole: parents move down until ev's slot is found.
	e.q = append(e.q, ev)
	q := e.q
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
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
	n := len(e.q)
	if n == 0 {
		return false
	}
	q := e.q
	top := q[0]
	last := q[n-1]
	q[n-1].fn = nil // release the closure's captures
	q = q[:n-1]
	e.q = q
	// Sift the former last element down from the root with a hole.
	n--
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	e.now = top.at
	e.events++
	top.fn()
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
	for len(e.q) > 0 && e.q[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor executes events for d of simulated time from now.
func (e *Engine) RunFor(d units.Duration) { e.RunUntil(e.now.Add(d)) }
