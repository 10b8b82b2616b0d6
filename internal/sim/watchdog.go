package sim

import (
	"context"
	"errors"
	"fmt"

	"tetriswrite/internal/units"
)

// ErrStopped is the error RunContext and Run report when Stop was called
// with a nil reason.
var ErrStopped = errors.New("sim: engine stopped")

// Watchdog bounds one RunContext call. The zero value imposes no limits
// beyond context cancellation, making RunContext(context.Background(),
// Watchdog{}) equivalent to Run.
type Watchdog struct {
	// MaxEvents is the maximum number of events this call may execute;
	// 0 means unlimited. A queue that drains in exactly MaxEvents events
	// is within budget; the budget trips only when an event beyond it is
	// still pending.
	MaxEvents uint64
	// MaxSimTime is the maximum simulated time the call may advance past
	// the time at which it started; 0 means unlimited. An event landing
	// exactly on the deadline still executes; the first event strictly
	// beyond it trips the budget.
	MaxSimTime units.Duration
}

// checkEvery is the number of events between context polls: a run
// stops within this many events of its context's cancellation.
const checkEvery = 1024

// BudgetError reports a tripped watchdog budget. The engine state is
// intact: the queue still holds the unexecuted events and the clock
// stands at the last executed event.
type BudgetError struct {
	Events    uint64     // events executed by the call
	MaxEvents uint64     // configured event budget (0 if the time budget tripped)
	Now       units.Time // simulated time when the budget tripped
	Deadline  units.Time // simulated-time deadline (only when SimTime)
	SimTime   bool       // true: MaxSimTime tripped; false: MaxEvents tripped
}

func (e *BudgetError) Error() string {
	if e.SimTime {
		return fmt.Sprintf("sim: watchdog: next event past simulated-time deadline %v (clock %v, %d events executed)",
			e.Deadline, e.Now, e.Events)
	}
	return fmt.Sprintf("sim: watchdog: event budget %d exhausted at simulated time %v with events still pending",
		e.MaxEvents, e.Now)
}

// Stop halts the engine at the next event boundary: the currently
// executing callback finishes, then Run or RunContext returns err (or
// ErrStopped when err is nil). The first Stop wins; later calls are
// ignored. Queued events stay queued. Invariant guards use this to
// terminate a run the moment a violation is detected instead of letting
// a corrupted simulation continue.
func (e *Engine) Stop(err error) {
	if e.stopErr == nil {
		if err == nil {
			err = ErrStopped
		}
		e.stopErr = err
	}
}

// StopReason returns the error passed to Stop, or nil if the engine was
// never stopped.
func (e *Engine) StopReason() error { return e.stopErr }

// RunContext executes events until the queue drains, returning nil, or
// until the context is cancelled, a watchdog budget trips, or Stop is
// called — returning the corresponding error with the engine state
// intact (the queue keeps its unexecuted events). Cancellation is polled
// every 1024 events, so a livelocked simulation — one whose callbacks
// keep rescheduling themselves forever — is terminated with a
// diagnosable error rather than hanging the caller.
func (e *Engine) RunContext(ctx context.Context, wd Watchdog) error {
	if err := ctx.Err(); err != nil {
		return err // cancelled before the first event
	}
	var deadline units.Time
	if wd.MaxSimTime > 0 {
		deadline = e.now.Add(wd.MaxSimTime)
	}
	start := e.events
	for {
		if e.stopErr != nil {
			return e.stopErr
		}
		if len(e.q) == 0 {
			return nil
		}
		at := e.q[0].at
		executed := e.events - start
		if wd.MaxEvents > 0 && executed >= wd.MaxEvents {
			return &BudgetError{Events: executed, MaxEvents: wd.MaxEvents, Now: e.now}
		}
		if wd.MaxSimTime > 0 && at > deadline {
			return &BudgetError{Events: executed, Now: e.now, Deadline: deadline, SimTime: true}
		}
		e.Step()
		if (e.events-start)%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
}
