package fleet

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/rpc"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tetriswrite/internal/exp"
	"tetriswrite/internal/runner"
	"tetriswrite/internal/system"
)

// The integration tests run the real service stack — broker behind a
// TCP net/rpc server, Worker goroutines dialing it, RunShard executing
// real simulations — at chaos-drill cadence: leases expire in hundreds
// of milliseconds so a killed worker's shards bounce within the test's
// patience.

// testCadence is the broker config for chaos drills.
func testCadence(journal string) Config {
	return Config{
		LeaseTTL:       400 * time.Millisecond,
		HeartbeatEvery: 50 * time.Millisecond,
		Poll:           10 * time.Millisecond,
		Retry:          runner.Backoff{Base: 10 * time.Millisecond, Max: 50 * time.Millisecond, Jitter: 0.2},
		JournalPath:    journal,
	}
}

// serveBroker exposes a broker over a real TCP RPC listener, returning
// its dial address and a stop function.
func serveBroker(t *testing.T, b *Broker) (addr string, stop func()) {
	t.Helper()
	srv := rpc.NewServer()
	if err := srv.RegisterName(RPCService, b.RPC()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

// startWorker runs a Worker against addr until ctx ends.
// The returned channel is closed once the worker's Run has returned.
func startWorker(ctx context.Context, t *testing.T, addr, name string, slots int) (*Worker, <-chan struct{}) {
	t.Helper()
	w := NewWorker(WorkerConfig{
		Broker:    addr,
		Name:      name,
		Slots:     slots,
		DialRetry: runner.Backoff{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond, Jitter: 0.2},
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	return w, done
}

// waitShardsDone polls until the job has at least n done shards.
func waitShardsDone(t *testing.T, b *Broker, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := b.Status(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.Shards.Done >= n {
			return
		}
		if st.State != string(JobRunning) && st.State != string(JobCompleted) {
			t.Fatalf("job %s reached %s while waiting for progress: %+v", id, st.State, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, _ := b.Status(id)
	t.Fatalf("job %s never reached %d done shards: %+v", id, n, st)
}

// serialReference renders the same grid with the in-process serial
// harness, exactly as `tetrisbench -fig 13` would print it.
func serialReference(t *testing.T, spec SweepSpec) string {
	t.Helper()
	fr, err := exp.RunFullSystem(exp.Options{InstrBudget: spec.Instr, Cores: spec.Cores, Seed: spec.Seeds[0]})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fmt.Fprintln(&buf, fr.Figure13())
	return buf.String()
}

// TestChaosWorkerKillMidSweep is the headline acceptance test: two
// workers share a full 40-shard sweep, one is killed mid-run with no
// goodbye (the in-process SIGKILL), and the job must still complete —
// with the rendered table byte-identical to a serial sweep of the same
// grid.
func TestChaosWorkerKillMidSweep(t *testing.T) {
	b, err := New(testCadence(""))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	addr, stop := serveBroker(t, b)
	defer stop()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w1, _ := startWorker(ctx, t, addr, "chaos-w1", 2)
	w2, _ := startWorker(ctx, t, addr, "chaos-w2", 2)

	spec := SweepSpec{Instr: 5_000, Figs: []int{13}}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	id, err := b.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Kill w2 once the sweep is demonstrably in flight: both workers
	// have completed shards and more are leased.
	waitShardsDone(t, b, id, 4)
	killBy := time.Now().Add(60 * time.Second)
	for (w1.Runs.Load() == 0 || w2.Runs.Load() == 0) && time.Now().Before(killBy) {
		time.Sleep(5 * time.Millisecond)
	}
	w2.Kill()
	t.Logf("killed w2 after %d runs; w1 has %d", w2.Runs.Load(), w1.Runs.Load())

	wctx, wcancel := context.WithTimeout(ctx, 120*time.Second)
	defer wcancel()
	if err := b.Wait(wctx, id); err != nil {
		st, _ := b.Status(id)
		t.Fatalf("job never finished after worker kill: %v (%+v)", err, st)
	}
	st, _ := b.Status(id)
	if st.State != string(JobCompleted) {
		t.Fatalf("job state = %s (%+v)", st.State, st)
	}
	if w1.Runs.Load() == 0 || w2.Runs.Load() == 0 {
		t.Fatalf("work was not actually shared: w1=%d w2=%d", w1.Runs.Load(), w2.Runs.Load())
	}

	var got bytes.Buffer
	if err := b.WriteResult(&got, id, false); err != nil {
		t.Fatal(err)
	}
	want := serialReference(t, spec)
	if got.String() != want {
		t.Errorf("fleet table differs from serial reference:\n--- serial ---\n%s--- fleet ---\n%s", want, got.String())
	}
}

// TestBrokerRestartResumesFromJournal kills the broker (not the
// workers) mid-sweep and restarts it on the same journal: the resumed
// job must re-run exactly the unfinished shards, and the final table
// must still match the serial reference.
func TestBrokerRestartResumesFromJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "broker.jsonl")
	spec := SweepSpec{Instr: 5_000, Figs: []int{13}}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}

	// Phase 1: run the sweep partway, then stop everything. The worker
	// is stopped gracefully *first* so no completion is in flight when
	// the broker goes down — making the resume arithmetic exact. However
	// fast the host, phase 1 stays a strict partial sweep: the first
	// phase1Shards shards run, every later one blocks until its context
	// ends.
	const phase1Shards = 8
	var started atomic.Int64
	runShard = func(ctx context.Context, sh ShardSpec) (system.Summary, error) {
		if started.Add(1) > phase1Shards {
			<-ctx.Done()
			return system.Summary{}, context.Cause(ctx)
		}
		return RunShard(ctx, sh)
	}
	b1, err := New(testCadence(journal))
	if err != nil {
		t.Fatal(err)
	}
	addr1, stop1 := serveBroker(t, b1)
	wctx1, wcancel1 := context.WithCancel(context.Background())
	w1, w1done := startWorker(wctx1, t, addr1, "phase1", 2)
	// Restore the seam only once the phase-1 worker has returned, so no
	// shard of it still reads it.
	stopPhase1 := sync.OnceFunc(func() {
		wcancel1()
		<-w1done
		runShard = RunShard
	})
	defer stopPhase1()

	id, err := b1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	total := 40 // 8 workloads x 5 schemes x 1 seed
	waitShardsDone(t, b1, id, phase1Shards)
	// Worker Run deregisters on its way out; once it has returned, take
	// the broker down hard (no drain — this is the crash).
	stopPhase1()
	stop1()
	b1.Close()
	phase1Runs := int(w1.Runs.Load())
	if phase1Runs == 0 || phase1Runs >= total {
		t.Fatalf("phase 1 ran %d shards; need a strict partial sweep", phase1Runs)
	}

	// Phase 2: fresh broker, same journal; fresh worker.
	b2, err := New(testCadence(journal))
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	st, ok := b2.Status(id)
	if !ok {
		t.Fatalf("job %s not restored from journal", id)
	}
	if st.State != string(JobRunning) || st.Shards.Restored == 0 || st.Shards.Done != st.Shards.Restored {
		t.Fatalf("restored status = %+v", st)
	}
	restored := st.Shards.Restored

	addr2, stop2 := serveBroker(t, b2)
	defer stop2()
	wctx2, wcancel2 := context.WithCancel(context.Background())
	defer wcancel2()
	w2, _ := startWorker(wctx2, t, addr2, "phase2", 2)

	dctx, dcancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer dcancel()
	if err := b2.Wait(dctx, id); err != nil {
		st, _ := b2.Status(id)
		t.Fatalf("resumed job never finished: %v (%+v)", err, st)
	}
	if st, _ := b2.Status(id); st.State != string(JobCompleted) {
		t.Fatalf("resumed job state: %+v", st)
	}
	// The resume contract: phase 2 re-runs exactly the shards the
	// journal did not already answer for.
	if got := int(w2.Runs.Load()); got != total-restored {
		t.Errorf("phase 2 ran %d shards, want %d (total %d - %d restored)", got, total-restored, total, restored)
	}

	var got bytes.Buffer
	if err := b2.WriteResult(&got, id, false); err != nil {
		t.Fatal(err)
	}
	want := serialReference(t, spec)
	if got.String() != want {
		t.Errorf("resumed fleet table differs from serial reference:\n--- serial ---\n%s--- fleet ---\n%s", want, got.String())
	}

	// And the journal doubles as a response cache across the restart:
	// an identical submission completes with zero new work.
	id2, err := b2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := b2.Status(id2); st.State != string(JobCompleted) || st.Shards.Cached != total {
		t.Errorf("cross-restart cache miss: %+v", st)
	}
}

// TestWorkerGracefulShutdownDeregisters: cancelling a worker's context
// must deregister it so its leases requeue without burning attempts.
func TestWorkerGracefulShutdownDeregisters(t *testing.T) {
	b, err := New(testCadence(""))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	addr, stop := serveBroker(t, b)
	defer stop()

	ctx, cancel := context.WithCancel(context.Background())
	startWorker(ctx, t, addr, "graceful", 1)
	deadline := time.Now().Add(10 * time.Second)
	for len(b.Workers()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	deadline = time.Now().Add(10 * time.Second)
	for len(b.Workers()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker still registered after graceful shutdown: %+v", b.Workers())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
