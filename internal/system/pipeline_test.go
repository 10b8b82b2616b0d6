package system

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"tetriswrite/internal/guard"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/workload"
)

// producers counts the live goroutines that draw a workload.Pipeline's
// ops, by the function that started them: a goroutine running on
// another thread shows only that in a stack dump.
func producers() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("created by tetriswrite/internal/workload.(*Pipeline).start"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestRunCtxStopsEveryProducer: no producer goroutine outlives RunCtx,
// whether the run ends normally, on a cancelled context, on a watchdog
// budget, on a guard violation or on a recovered panic. Each factory
// counts the producers alive while the run assembles its controller,
// after the sources are built, to show the run had some to stop; a run
// whose streams end inside the inline batch has none.
func TestRunCtxStopsEveryProducer(t *testing.T) {
	prof, _ := workload.ProfileByName("vips")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name   string
		ctx    context.Context
		budget int64 // instructions per core
		cfg    func(*Config)
		scheme func(pcm.Params) schemes.Scheme
		want   func(error) bool
		live   int // producers while the run assembles
	}{
		{name: "normal end", budget: 1_500_000, live: 4},
		{name: "inline only", budget: 20_000},
		{name: "cancelled context", ctx: cancelled, budget: 50_000_000, live: 4,
			want: func(err error) bool { return errors.Is(err, context.Canceled) }},
		{name: "watchdog", budget: 50_000_000, live: 4,
			cfg: func(c *Config) { c.MaxEvents = 5000 },
			want: func(err error) bool {
				var be *sim.BudgetError
				return errors.As(err, &be)
			}},
		{name: "guard violation", budget: 50_000_000, live: 4,
			cfg:    func(c *Config) { c.Guard = guard.Config{Enabled: true} },
			scheme: func(par pcm.Params) schemes.Scheme { return overBudgetScheme{schemes.NewDCW(par)} },
			want: func(err error) bool {
				var v *guard.ViolationError
				return errors.As(err, &v)
			}},
		{name: "recovered panic", budget: 50_000_000, live: 4,
			scheme: func(par pcm.Params) schemes.Scheme { return &panicScheme{Scheme: schemes.NewDCW(par), n: 3} },
			want: func(err error) bool {
				var pe *PanicError
				return errors.As(err, &pe)
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cfg, scheme := tc.ctx, smallConfig(), tc.scheme
			if ctx == nil {
				ctx = context.Background()
			}
			if scheme == nil {
				scheme = schemes.NewDCW
			}
			cfg.InstrBudget = tc.budget
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			live := -1
			factory := func(par pcm.Params) schemes.Scheme {
				live = max(live, producers())
				return scheme(par)
			}
			_, err := RunCtx(ctx, prof, factory, cfg)
			if tc.want == nil && err != nil || tc.want != nil && !tc.want(err) {
				t.Fatalf("run ended with %T %v", err, err)
			}
			if live != tc.live {
				t.Errorf("%d producers while the run assembled, want %d", live, tc.live)
			}
			// A producer's last act is to tell Stop it is done; the
			// runtime lists it until it has exited, moments later.
			for deadline := time.Now().Add(time.Second); producers() != 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d producers outlived the run", producers())
				}
			}
		})
	}
}
