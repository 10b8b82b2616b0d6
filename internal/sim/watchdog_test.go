package sim

import (
	"context"
	"errors"
	"testing"

	"tetriswrite/internal/units"
)

func ns(n int64) units.Duration { return units.Duration(n) }

// chain schedules a linear chain of n events, each 1 ns apart, counting
// executions.
func chain(e *Engine, n int, count *int) {
	var step func()
	step = func() {
		*count++
		if *count < n {
			e.After(ns(1), step)
		}
	}
	e.After(ns(1), step)
}

func TestRunContextDrainsLikeRun(t *testing.T) {
	var e Engine
	var count int
	chain(&e, 5, &count)
	if err := e.RunContext(context.Background(), Watchdog{}); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("executed %d events, want 5", count)
	}
	if e.Pending() != 0 {
		t.Errorf("%d events left queued", e.Pending())
	}
}

func TestRunContextCancelBeforeFirstEvent(t *testing.T) {
	var e Engine
	ran := false
	e.After(ns(1), func() { ran = true })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := e.RunContext(ctx, Watchdog{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("event executed despite pre-cancelled context")
	}
	if e.Pending() != 1 {
		t.Errorf("queue disturbed: %d pending, want 1", e.Pending())
	}
}

// TestRunContextCancelMidDrain: a cancellation fired from inside an
// event callback is noticed at the next poll, after the 1024th event.
func TestRunContextCancelMidDrain(t *testing.T) {
	var e Engine
	ctx, cancel := context.WithCancel(context.Background())
	var count int
	var step func()
	step = func() {
		count++
		if count == 1000 {
			cancel() // cancel from inside an event callback
		}
		e.After(ns(1), step) // would self-reschedule forever
	}
	e.After(ns(1), step)
	err := e.RunContext(ctx, Watchdog{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if count != 1024 {
		t.Errorf("executed %d events before noticing cancellation, want 1024", count)
	}
	if e.Pending() == 0 {
		t.Error("pending event dropped on cancellation")
	}
}

// TestRunContextEventBudgetExactBoundary: a queue that drains in exactly
// MaxEvents events succeeds; one more pending event trips the budget.
func TestRunContextEventBudgetExactBoundary(t *testing.T) {
	var e Engine
	var count int
	chain(&e, 4, &count)
	if err := e.RunContext(context.Background(), Watchdog{MaxEvents: 4}); err != nil {
		t.Fatalf("budget == work should succeed, got %v", err)
	}
	if count != 4 {
		t.Fatalf("executed %d, want 4", count)
	}

	var e2 Engine
	var count2 int
	chain(&e2, 5, &count2)
	err := e2.RunContext(context.Background(), Watchdog{MaxEvents: 4})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if be.SimTime || be.MaxEvents != 4 || be.Events != 4 {
		t.Errorf("budget error fields wrong: %+v", be)
	}
	if count2 != 4 {
		t.Errorf("executed %d events under budget 4", count2)
	}
	if e2.Pending() != 1 {
		t.Errorf("%d pending after budget trip, want 1", e2.Pending())
	}
}

// TestRunContextSimTimeBudgetExactBoundary: an event landing exactly on
// the deadline executes; the first event strictly past it trips.
func TestRunContextSimTimeBudgetExactBoundary(t *testing.T) {
	var e Engine
	var at10, at11 bool
	e.At(units.Time(10), func() { at10 = true })
	e.At(units.Time(11), func() { at11 = true })
	err := e.RunContext(context.Background(), Watchdog{MaxSimTime: ns(10)})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if !be.SimTime {
		t.Error("event budget blamed instead of the sim-time budget")
	}
	if !at10 {
		t.Error("event exactly on the deadline did not execute")
	}
	if at11 {
		t.Error("event past the deadline executed")
	}
	if e.Now() != units.Time(10) {
		t.Errorf("clock at %v after trip, want 10", e.Now())
	}
}

func TestRunContextSimTimeBudgetDrainsWithin(t *testing.T) {
	var e Engine
	e.At(units.Time(5), func() {})
	if err := e.RunContext(context.Background(), Watchdog{MaxSimTime: ns(10)}); err != nil {
		t.Fatalf("drain within deadline should succeed, got %v", err)
	}
}

// TestRunContextIdleEngine: an engine with no events returns immediately
// with no error and its clock unmoved, under any budget.
func TestRunContextIdleEngine(t *testing.T) {
	var e Engine
	err := e.RunContext(context.Background(), Watchdog{MaxEvents: 1, MaxSimTime: ns(1)})
	if err != nil {
		t.Fatalf("idle engine: %v", err)
	}
	if e.Now() != 0 || e.Processed() != 0 {
		t.Errorf("idle engine moved: now %v, %d events", e.Now(), e.Processed())
	}
}

// TestRunContextLivelockTerminates: a self-rescheduling event storm (the
// retry-storm shape from the fault layer) terminates via the event
// budget instead of hanging.
func TestRunContextLivelockTerminates(t *testing.T) {
	var e Engine
	var rearm func()
	rearm = func() { e.After(0, rearm) } // zero-delay self-rescheduling forever
	e.After(0, rearm)
	err := e.RunContext(context.Background(), Watchdog{MaxEvents: 10_000})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("livelock not caught: err = %v", err)
	}
}

func TestStopHaltsRun(t *testing.T) {
	var e Engine
	stopErr := errors.New("violation")
	var count int
	var step func()
	step = func() {
		count++
		if count == 2 {
			e.Stop(stopErr)
		}
		e.After(ns(1), step)
	}
	e.After(ns(1), step)
	e.Run()
	if count != 2 {
		t.Errorf("Run executed %d events after Stop, want 2", count)
	}
	if e.StopReason() != stopErr {
		t.Errorf("StopReason = %v", e.StopReason())
	}

	// RunContext surfaces the stop reason as its error.
	var e2 Engine
	e2.After(ns(1), func() { e2.Stop(stopErr) })
	e2.After(ns(2), func() { t.Error("event after Stop executed") })
	if err := e2.RunContext(context.Background(), Watchdog{}); !errors.Is(err, stopErr) {
		t.Errorf("RunContext err = %v, want %v", err, stopErr)
	}
}

func TestStopFirstWinsAndNilReason(t *testing.T) {
	var e Engine
	e.Stop(nil)
	if !errors.Is(e.StopReason(), ErrStopped) {
		t.Errorf("Stop(nil) reason = %v, want ErrStopped", e.StopReason())
	}
	e.Stop(errors.New("later"))
	if !errors.Is(e.StopReason(), ErrStopped) {
		t.Error("second Stop overwrote the first reason")
	}
}
