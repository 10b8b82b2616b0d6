package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestAllRunsEveryJobPositionally(t *testing.T) {
	jobs := make([]Job[int], 20)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Name: fmt.Sprintf("job-%d", i),
			Run:  func(context.Context) (int, error) { return i * i, nil },
		}
	}
	results := All(context.Background(), jobs, Options{Workers: 4})
	if len(results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Err != nil || r.Value != i*i || r.Name != jobs[i].Name {
			t.Errorf("result %d = %+v", i, r)
		}
	}
	if err := FirstErr(results); err != nil {
		t.Errorf("FirstErr = %v", err)
	}
}

func TestPanicIsolation(t *testing.T) {
	jobs := []Job[string]{
		{Name: "ok", Run: func(context.Context) (string, error) { return "fine", nil }},
		{Name: "boom", Run: func(context.Context) (string, error) { panic("kaboom") }},
		{Name: "also-ok", Run: func(context.Context) (string, error) { return "fine too", nil }},
	}
	results := All(context.Background(), jobs, Options{Workers: 2})
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatal("healthy jobs infected by the panicking one")
	}
	var pe *PanicError
	if !errors.As(results[1].Err, &pe) {
		t.Fatalf("err = %T %v, want *PanicError", results[1].Err, results[1].Err)
	}
	if pe.Job != "boom" || pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Errorf("panic error incomplete: %+v", pe)
	}
	if err := FirstErr(results); !errors.As(err, &pe) {
		t.Errorf("FirstErr = %v, want the panic", err)
	}
}

// TestCancelSkipsPendingKeepsDone: with one worker and a cancel fired by
// the second job, the jobs after it settle as ErrSkipped while the
// completed first job's result survives — partial aggregation.
func TestCancelSkipsPendingKeepsDone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := []Job[int]{
		{Name: "first", Run: func(context.Context) (int, error) { return 1, nil }},
		{Name: "trigger", Run: func(context.Context) (int, error) { cancel(); return 2, nil }},
		{Name: "late", Run: func(context.Context) (int, error) { return 3, nil }},
		{Name: "later", Run: func(context.Context) (int, error) { return 4, nil }},
	}
	results := All(ctx, jobs, Options{Workers: 1})
	if results[0].Err != nil || results[0].Value != 1 {
		t.Errorf("completed result lost: %+v", results[0])
	}
	for _, r := range results[2:] {
		if !errors.Is(r.Err, ErrSkipped) || !errors.Is(r.Err, context.Canceled) {
			t.Errorf("pending job not skipped: %+v", r)
		}
		if r.Value != 0 {
			t.Errorf("skipped job ran: %+v", r)
		}
	}
}

// TestCancellationNotRetried: a job failing because the supervisor was
// cancelled runs once and reports the cancellation as its error.
func TestCancellationNotRetried(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int32
	jobs := []Job[int]{{
		Name: "cancelled",
		Run: func(ctx context.Context) (int, error) {
			calls.Add(1)
			cancel()
			return 0, ctx.Err()
		},
	}}
	results := All(ctx, jobs, Options{})
	if calls.Load() != 1 {
		t.Errorf("cancelled job attempted %d times, want 1", calls.Load())
	}
	if !errors.Is(results[0].Err, context.Canceled) {
		t.Errorf("err = %v", results[0].Err)
	}
}

func TestJobTimeout(t *testing.T) {
	jobs := []Job[int]{{
		Name: "slow",
		Run: func(ctx context.Context) (int, error) {
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(10 * time.Second):
				return 1, nil
			}
		},
	}}
	start := time.Now()
	results := All(context.Background(), jobs, Options{JobTimeout: 20 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout did not bound the job (%v elapsed)", elapsed)
	}
	if !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", results[0].Err)
	}
}

// TestBackoffDelayDeterministic: the same (Seed, attempt) pair always
// yields the same delay — the property the fleet broker's journal
// replay and these very tests rely on.
func TestBackoffDelayDeterministic(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: 10 * time.Second, Jitter: 0.2, Seed: 42}
	for attempt := 1; attempt <= 8; attempt++ {
		d1 := b.Delay(attempt)
		d2 := b.Delay(attempt)
		if d1 != d2 {
			t.Fatalf("Delay(%d) nondeterministic: %v vs %v", attempt, d1, d2)
		}
	}
	other := Backoff{Base: 100 * time.Millisecond, Max: 10 * time.Second, Jitter: 0.2, Seed: 43}
	same := 0
	for attempt := 1; attempt <= 8; attempt++ {
		if b.Delay(attempt) == other.Delay(attempt) {
			same++
		}
	}
	if same == 8 {
		t.Error("different seeds produced identical schedules — jitter is not seed-dependent")
	}
}

// TestBackoffDelayGrowthAndCap: delays double from Base and saturate at
// Max; jitter keeps every delay within ±Jitter of the nominal value.
func TestBackoffDelayGrowthAndCap(t *testing.T) {
	plain := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond, 80 * time.Millisecond,
	}
	for i, w := range want {
		if got := plain.Delay(i + 1); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := plain.Delay(0); got != plain.Delay(1) {
		t.Errorf("Delay(0) = %v, want clamp to Delay(1) = %v", got, plain.Delay(1))
	}
	if got := (Backoff{}).Delay(1); got != 100*time.Millisecond {
		t.Errorf("zero-value Base: Delay(1) = %v, want 100ms default", got)
	}
	jit := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Jitter: 0.2, Seed: 7}
	for i, w := range want {
		got := jit.Delay(i + 1)
		lo := time.Duration(float64(w) * 0.8)
		hi := time.Duration(float64(w) * 1.2)
		if got < lo || got > hi {
			t.Errorf("jittered Delay(%d) = %v outside [%v, %v]", i+1, got, lo, hi)
		}
	}
}

// TestJobTimeoutRacesCompletion: a job that finishes just inside its
// timeout wins cleanly, and one that finishes concurrently with firing
// settles as exactly one of the two outcomes — never a torn result.
func TestJobTimeoutRacesCompletion(t *testing.T) {
	fast := []Job[int]{{
		Name: "fast",
		Run:  func(context.Context) (int, error) { return 42, nil },
	}}
	results := All(context.Background(), fast, Options{JobTimeout: 10 * time.Second})
	if results[0].Err != nil || results[0].Value != 42 {
		t.Fatalf("fast job lost its race with a distant timeout: %+v", results[0])
	}
	// Race the two endings for real: many jobs sleeping right at the
	// timeout boundary. Each must settle as either a clean success or a
	// clean deadline error.
	n := 32
	jobs := make([]Job[int], n)
	for i := range jobs {
		jobs[i] = Job[int]{
			Name: fmt.Sprintf("edge-%d", i),
			Run: func(ctx context.Context) (int, error) {
				select {
				case <-ctx.Done():
					return 0, ctx.Err()
				case <-time.After(5 * time.Millisecond):
					return 1, nil
				}
			},
		}
	}
	for i, r := range All(context.Background(), jobs, Options{JobTimeout: 5 * time.Millisecond, Workers: 8}) {
		ok := r.Err == nil && r.Value == 1
		timedOut := errors.Is(r.Err, context.DeadlineExceeded) && r.Value == 0
		if !ok && !timedOut {
			t.Errorf("job %d settled as neither outcome: %+v", i, r)
		}
	}
}

// TestAttemptStandalone: the exported single-shot path applies the
// timeout and converts panics the same way pooled jobs do.
func TestAttemptStandalone(t *testing.T) {
	v, err := Attempt(context.Background(), "ok", 0, func(context.Context) (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("Attempt = %d, %v", v, err)
	}
	_, err = Attempt(context.Background(), "slow", 10*time.Millisecond, func(ctx context.Context) (int, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timeout err = %v", err)
	}
	_, err = Attempt(context.Background(), "boom", 0, func(context.Context) (int, error) { panic("pow") })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Job != "boom" {
		t.Errorf("panic err = %v, want *PanicError for job boom", err)
	}
}
