package sim

import (
	"context"
	"errors"
	"fmt"

	"tetriswrite/internal/units"
)

// refEngine is the independent pop-order reference for Engine: a naive
// queue kept as a slice sorted by time, O(n) per insertion. A new event
// goes behind every queued event at the same or an earlier time, so
// same-time events run in scheduling order without any sequence number.
// It shares no code with Engine's heap.
type refEngine struct {
	q      []refEvent
	now    units.Time
	events uint64
}

type refEvent struct {
	at units.Time
	fn func()
}

func (r *refEngine) At(t units.Time, fn func()) {
	if t < r.now {
		panic(fmt.Sprintf("ref: event at %v before now %v", t, r.now))
	}
	i := len(r.q)
	for i > 0 && r.q[i-1].at > t {
		i--
	}
	r.q = append(r.q, refEvent{})
	copy(r.q[i+1:], r.q[i:])
	r.q[i] = refEvent{at: t, fn: fn}
}

func (r *refEngine) After(d units.Duration, fn func()) { r.At(r.now.Add(d), fn) }
func (r *refEngine) Now() units.Time                   { return r.now }
func (r *refEngine) Processed() uint64                 { return r.events }
func (r *refEngine) Pending() int                      { return len(r.q) }

func (r *refEngine) Step() bool {
	if len(r.q) == 0 {
		return false
	}
	ev := r.q[0]
	r.q = r.q[1:]
	r.now = ev.at
	r.events++
	ev.fn()
	return true
}

func (r *refEngine) Run() {
	for r.Step() {
	}
}

func (r *refEngine) RunUntil(t units.Time) {
	for len(r.q) > 0 && r.q[0].at <= t {
		r.Step()
	}
	if r.now < t {
		r.now = t
	}
}

// runBudget restates Watchdog's budget rules directly: the event budget
// trips once maxEvents events ran and another is pending, and the time
// budget when the next event lies strictly past the deadline.
func (r *refEngine) runBudget(maxEvents uint64, maxSim units.Duration) string {
	deadline := r.now.Add(maxSim)
	start := r.events
	for len(r.q) > 0 {
		ran := r.events - start
		if maxEvents > 0 && ran >= maxEvents {
			return "event budget"
		}
		if maxSim > 0 && r.q[0].at > deadline {
			return "time budget"
		}
		r.Step()
	}
	return "drained"
}

// scheduler is the surface the pop-order tests drive, met by both
// Engine and refEngine.
type scheduler interface {
	At(units.Time, func())
	After(units.Duration, func())
	Now() units.Time
	Processed() uint64
	Pending() int
	Step() bool
	Run()
	RunUntil(units.Time)
	runBudget(maxEvents uint64, maxSim units.Duration) string
}

// runBudget runs RunContext with the given watchdog and names its
// outcome the way refEngine.runBudget does.
func (e *Engine) runBudget(maxEvents uint64, maxSim units.Duration) string {
	err := e.RunContext(context.Background(), Watchdog{MaxEvents: maxEvents, MaxSimTime: maxSim})
	var be *BudgetError
	switch {
	case err == nil:
		return "drained"
	case errors.As(err, &be) && be.SimTime:
		return "time budget"
	case errors.As(err, &be):
		return "event budget"
	}
	return err.Error()
}
