// Package runner is the experiment supervisor: a bounded worker pool
// that fans independent jobs (full-system simulation cells, benchmark
// points) across CPUs with the failure handling a long unattended sweep
// needs — per-job panic isolation, per-job wall-clock timeouts, and
// graceful partial-result aggregation when the caller cancels.
//
// Results are positionally aligned with the submitted jobs, so a sweep
// filled in parallel is indistinguishable from one filled serially:
// every job owns its inputs (seeds, configs) and the pool imposes no
// ordering of its own. That is what lets tetrisbench promise bit-
// identical tables for -parallel 1 and -parallel N. Concretely, worker
// goroutines write only results[i] for the job index they leased off the
// shared channel — disjoint slots, no shared accumulator — so the only
// cross-goroutine edges are the channel handoff and the final WaitGroup
// join, and positional determinism needs no locking (pinned by
// TestAllRunsEveryJobPositionally under the race detector in CI).
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// ErrSkipped marks a job that never ran because the supervisor was
// cancelled first. Its Result.Value is the zero value.
var ErrSkipped = errors.New("runner: job skipped")

// Job is one unit of work. Run receives a context derived from the
// supervisor's (with the per-job timeout applied, when configured) and
// should return promptly once it is cancelled.
type Job[T any] struct {
	Name string
	Run  func(ctx context.Context) (T, error)
}

// Result is one job's outcome, at the same index as its job.
type Result[T any] struct {
	Name  string
	Value T     // also set on failure when Run returned a partial value
	Err   error // nil on success; ErrSkipped if the job never ran
}

// PanicError is a panic recovered from a job's Run — the pool converts
// it to an error so one crashing cell cannot take down the sweep.
type PanicError struct {
	Job   string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %s panicked: %v", e.Job, e.Value)
}

// Options configure a pool.
type Options struct {
	// Workers is the number of concurrent jobs; <= 0 means GOMAXPROCS.
	Workers int
	// JobTimeout bounds each job's wall-clock time; 0 means none.
	JobTimeout time.Duration
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// All runs every job and returns their results, index-aligned with
// jobs. It blocks until each job has either settled or been marked
// skipped; when ctx is cancelled, running jobs see it through their
// derived contexts and unstarted jobs settle as ErrSkipped, so the
// caller always gets back whatever completed — partial results instead
// of nothing.
func All[T any](ctx context.Context, jobs []Job[T], opt Options) []Result[T] {
	results := make([]Result[T], len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opt.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				r := &results[i]
				r.Name = jobs[i].Name
				if err := ctx.Err(); err != nil {
					r.Err = fmt.Errorf("%w: %w", ErrSkipped, err)
					continue
				}
				r.Value, r.Err = Attempt(ctx, r.Name, opt.JobTimeout, jobs[i].Run)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// Backoff computes the delay before retry attempt n (1-based) as an
// exponential series with an optional cap and optional deterministic
// jitter. It is the fleet's retry-pacing policy: the broker spaces
// shard re-issues across surviving workers with it, and a worker its
// reconnection attempts.
type Backoff struct {
	// Base is the delay before the first retry; <= 0 means 100ms.
	Base time.Duration
	// Max caps the grown delay; 0 means uncapped.
	Max time.Duration
	// Jitter spreads each delay uniformly over ±Jitter fraction of
	// itself (0..1), decorrelating retry storms when many shards fail
	// at once (a worker death fails its whole lease set together).
	Jitter float64
	// Seed makes the jitter deterministic per consumer: the same
	// (Seed, attempt) always yields the same delay, so tests and
	// journal replays see reproducible schedules. A zero Seed is a
	// valid seed.
	Seed uint64
}

// Delay returns the wait before retry attempt n (n >= 1).
func (b Backoff) Delay(attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := b.Base
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	for i := 1; i < attempt; i++ {
		d *= 2
		if b.Max > 0 && d >= b.Max {
			d = b.Max
			break
		}
	}
	if b.Max > 0 && d > b.Max {
		d = b.Max
	}
	if b.Jitter > 0 {
		// splitmix64 finalizer over (Seed, attempt): uniform in
		// [1-Jitter, 1+Jitter) without any shared RNG state.
		z := b.Seed + 0x9e3779b97f4a7c15*uint64(attempt+1)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		u := float64(z>>11) / (1 << 53) // [0,1)
		d = time.Duration(float64(d) * (1 - b.Jitter + 2*b.Jitter*u))
		if d < time.Millisecond {
			d = time.Millisecond
		}
	}
	return d
}

// Attempt executes fn once under the pool's per-job semantics: the
// timeout (when positive) bounds its wall-clock time through a derived
// context, and a panic is converted to a *PanicError instead of
// unwinding the caller. Exported so single-shot supervised work — a
// fleet worker running one leased shard — shares the exact failure
// envelope of a pooled job.
func Attempt[T any](ctx context.Context, name string, timeout time.Duration, fn func(context.Context) (T, error)) (v T, err error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Job: name, Value: p, Stack: debug.Stack()}
		}
	}()
	return fn(ctx)
}

// FirstErr returns the first failed result's error (with the job name
// attached), or nil when every job succeeded.
func FirstErr[T any](results []Result[T]) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.Name, r.Err)
		}
	}
	return nil
}
