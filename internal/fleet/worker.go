package fleet

import (
	"context"
	"fmt"
	"net/rpc"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tetriswrite/internal/runner"
	"tetriswrite/internal/system"
)

// WorkerConfig configures one worker process.
type WorkerConfig struct {
	// Broker is the broker's RPC address (host:port).
	Broker string
	// Name is the operator-facing label; default "pcmsimw".
	Name string
	// Slots is the number of shards run concurrently; <= 0 means
	// GOMAXPROCS.
	Slots int
	// Version is the build identity reported at registration.
	Version string
	// DialRetry paces reconnection attempts when the broker is away.
	// Defaults: Base 200ms, Max 5s, Jitter 0.2.
	DialRetry runner.Backoff
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c *WorkerConfig) normalize() {
	if c.Name == "" {
		c.Name = "pcmsimw"
	}
	if c.Slots <= 0 {
		c.Slots = runtime.GOMAXPROCS(0)
	}
	if c.DialRetry.Base <= 0 {
		c.DialRetry.Base = 200 * time.Millisecond
	}
	if c.DialRetry.Max <= 0 {
		c.DialRetry.Max = 5 * time.Second
	}
	if c.DialRetry.Jitter == 0 {
		c.DialRetry.Jitter = 0.2
	}
}

// Worker pulls shard leases from a broker, runs them through
// system.RunCtx under the runner's per-attempt envelope (timeout +
// panic isolation), and reports results. It survives broker restarts by
// redialing and re-registering, and honors job cancellations delivered
// on heartbeats.
type Worker struct {
	cfg WorkerConfig

	// Runs counts shards this worker actually executed (not counting
	// attempts cancelled before completion) — chaos tests use it to
	// prove resumed sweeps re-run only unfinished shards.
	Runs atomic.Int64

	kill     chan struct{}
	killOnce sync.Once

	mu      sync.Mutex
	cancels map[string]map[int]context.CancelFunc // job → shard → cancel
}

// NewWorker builds a worker; call Run to start it.
func NewWorker(cfg WorkerConfig) *Worker {
	cfg.normalize()
	return &Worker{
		cfg:     cfg,
		kill:    make(chan struct{}),
		cancels: make(map[string]map[int]context.CancelFunc),
	}
}

// Kill simulates a crash: the worker abandons its registration, its
// heartbeats and its running shards immediately, with no goodbye to the
// broker — the in-process equivalent of SIGKILL, which is exactly what
// the chaos tests need to exercise lease-expiry recovery.
func (w *Worker) Kill() {
	w.killOnce.Do(func() { close(w.kill) })
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// Run drives the worker until ctx is cancelled (graceful: running
// shards are cancelled and the broker gets a Deregister so its leases
// requeue immediately) or Kill is called (abandon everything). The
// outer loop redials and re-registers after any RPC failure, so a
// broker restart is a pause, not an outage.
func (w *Worker) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-w.kill:
			cancel()
		case <-ctx.Done():
		}
	}()
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		client, err := rpc.Dial("tcp", w.cfg.Broker)
		if err != nil {
			w.logf("dial %s: %v (retrying)", w.cfg.Broker, err)
			if !sleepCtx(ctx, w.cfg.DialRetry.Delay(attempt)) {
				return ctx.Err()
			}
			continue
		}
		var reg RegisterReply
		err = client.Call(RPCService+".Register", &RegisterArgs{
			Name: w.cfg.Name, Version: w.cfg.Version, Slots: w.cfg.Slots,
		}, &reg)
		if err != nil {
			client.Close()
			w.logf("register: %v (retrying)", err)
			if !sleepCtx(ctx, w.cfg.DialRetry.Delay(attempt)) {
				return ctx.Err()
			}
			continue
		}
		attempt = 0 // connected: future backoffs restart from the base
		w.logf("registered as %s at %s (lease %v, heartbeat %v, %d slots)",
			reg.WorkerID, w.cfg.Broker, reg.LeaseTTL, reg.HeartbeatEvery, w.cfg.Slots)
		serveErr := w.serve(ctx, client, reg)
		if ctx.Err() != nil {
			// Graceful exit: say goodbye unless we were Killed.
			select {
			case <-w.kill:
			default:
				client.Call(RPCService+".Deregister", &DeregisterArgs{WorkerID: reg.WorkerID}, &DeregisterReply{})
				w.logf("deregistered %s", reg.WorkerID)
			}
			client.Close()
			return ctx.Err()
		}
		client.Close()
		w.logf("broker session ended: %v (reconnecting)", serveErr)
	}
}

// serve runs one registered session: a heartbeat loop plus Slots
// concurrent lease-run-report loops. It returns the first RPC failure;
// the caller redials.
func (w *Worker) serve(ctx context.Context, client *rpc.Client, reg RegisterReply) error {
	sctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	go func() { // propagate the outer cancellation into the session
		select {
		case <-ctx.Done():
			cancel(ctx.Err())
		case <-sctx.Done():
		}
	}()

	var wg sync.WaitGroup
	fail := func(err error) { cancel(err) }

	wg.Add(1)
	go func() { // heartbeats
		defer wg.Done()
		t := time.NewTicker(reg.HeartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-sctx.Done():
				return
			case <-t.C:
			}
			var hb HeartbeatReply
			if err := client.Call(RPCService+".Heartbeat", &HeartbeatArgs{WorkerID: reg.WorkerID}, &hb); err != nil {
				fail(fmt.Errorf("heartbeat: %w", err))
				return
			}
			if !hb.OK {
				w.cancelAll()
				fail(fmt.Errorf("broker forgot worker %s (lease expired or broker restart)", reg.WorkerID))
				return
			}
			for _, job := range hb.CancelJobs {
				w.cancelJob(job)
			}
		}
	}()

	for s := 0; s < w.cfg.Slots; s++ {
		wg.Add(1)
		go func() { // one lease-run-report loop per slot
			defer wg.Done()
			for {
				if sctx.Err() != nil {
					return
				}
				var next NextReply
				if err := client.Call(RPCService+".Next", &NextArgs{WorkerID: reg.WorkerID}, &next); err != nil {
					fail(fmt.Errorf("next: %w", err))
					return
				}
				if !next.Found {
					if !sleepCtx(sctx, reg.Poll) {
						return
					}
					continue
				}
				w.runAssignment(sctx, client, reg.WorkerID, next.A)
			}
		}()
	}

	wg.Wait()
	w.cancelAll()
	return context.Cause(sctx)
}

// runShard runs a leased shard: RunShard, held in a variable so tests
// can control how long shards take.
var runShard = RunShard

// runAssignment executes one leased shard and reports the outcome.
func (w *Worker) runAssignment(sctx context.Context, client *rpc.Client, workerID string, a Assignment) {
	shardCtx, cancel := context.WithCancel(sctx)
	w.track(a.Job, a.Shard, cancel)
	defer w.untrack(a.Job, a.Shard)
	defer cancel()

	w.logf("shard %s/%d (%s) attempt %d", a.Job, a.Shard, a.Spec, a.Attempt)
	sum, err := runner.Attempt(shardCtx, a.Spec.String(), a.Timeout,
		func(ctx context.Context) (system.Summary, error) { return runShard(ctx, a.Spec) })
	if sctx.Err() != nil {
		// Session is gone (broker away, worker stopping, or killed):
		// no Complete. The broker's lease machinery owns recovery.
		return
	}
	args := &CompleteArgs{WorkerID: workerID, Job: a.Job, Shard: a.Shard, Attempt: a.Attempt}
	if err != nil {
		args.Err = err.Error()
	} else {
		w.Runs.Add(1)
		args.OK = true
		args.Result = ShardResult{Fp: a.Spec.Fingerprint(), Summary: sum}
	}
	if cerr := client.Call(RPCService+".Complete", args, &CompleteReply{}); cerr != nil {
		w.logf("complete %s/%d: %v", a.Job, a.Shard, cerr)
	}
}

func (w *Worker) track(job string, shard int, cancel context.CancelFunc) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cancels[job] == nil {
		w.cancels[job] = make(map[int]context.CancelFunc)
	}
	w.cancels[job][shard] = cancel
}

func (w *Worker) untrack(job string, shard int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.cancels[job], shard)
	if len(w.cancels[job]) == 0 {
		delete(w.cancels, job)
	}
}

// cancelJob aborts this worker's running shards of one job.
func (w *Worker) cancelJob(job string) {
	w.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(w.cancels[job]))
	for _, c := range w.cancels[job] {
		cancels = append(cancels, c)
	}
	w.mu.Unlock()
	if len(cancels) > 0 {
		w.logf("cancelling %d running shards of %s", len(cancels), job)
	}
	for _, c := range cancels {
		c()
	}
}

func (w *Worker) cancelAll() {
	w.mu.Lock()
	var cancels []context.CancelFunc
	for _, m := range w.cancels {
		for _, c := range m {
			cancels = append(cancels, c)
		}
	}
	w.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// sleepCtx waits d or until ctx is done; reports whether the full wait
// elapsed. Timer-hygienic: the timer is stopped on early exit.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
