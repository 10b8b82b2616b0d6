package system

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/trace"
	"tetriswrite/internal/units"
	"tetriswrite/internal/workload"
)

func TestRunCtxCancelledBeforeStart(t *testing.T) {
	prof, _ := workload.ProfileByName("vips")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunCtx(ctx, prof, schemes.NewDCW, smallConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T, want *RunError", err)
	}
	if re.Fp.Workload != "vips" || re.Fp.Scheme != "dcw" {
		t.Errorf("fingerprint wrong: %+v", re.Fp)
	}
	// Nothing ran, but the partial result is still labelled.
	if res.Workload != "vips" || res.Scheme != "dcw" {
		t.Errorf("partial result labels: %s/%s", res.Workload, res.Scheme)
	}
}

// TestRunCtxEventBudget: a run that cannot finish within the event
// budget terminates with a *sim.BudgetError and partial statistics.
func TestRunCtxEventBudget(t *testing.T) {
	prof, _ := workload.ProfileByName("vips")
	cfg := smallConfig()
	cfg.MaxEvents = 5_000
	res, err := RunCtx(context.Background(), prof, schemes.NewDCW, cfg)
	var be *sim.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T %v, want *sim.BudgetError in chain", err, err)
	}
	if be.Events != 5_000 {
		t.Errorf("budget tripped after %d events, want 5000", be.Events)
	}
	var re *RunError
	if !errors.As(err, &re) || re.Fp.Cycle <= 0 {
		t.Errorf("run error does not carry an abort cycle: %v", err)
	}
	if res.Ctrl.Reads == 0 && res.Ctrl.Writes == 0 {
		t.Error("no partial statistics gathered before the budget tripped")
	}
	for _, cs := range res.Cores {
		if cs.Finished {
			t.Error("a core claims to have finished inside a 5000-event budget")
		}
	}
}

// cancelAtPlan wraps a scheme so that its nth PlanWrite cancels the
// run's context: a cancellation fired from inside the simulation, at
// a point that depends only on the simulated write stream.
type cancelAtPlan struct {
	schemes.Scheme
	n      int
	cancel context.CancelFunc
}

func (s *cancelAtPlan) PlanWrite(addr pcm.LineAddr, old, new []byte) schemes.Plan {
	if s.n--; s.n == 0 {
		s.cancel()
	}
	return s.Scheme.PlanWrite(addr, old, new)
}

// TestRunCtxCancelMidRun: a cancellation landing mid-run, fired from
// the 20th planned write, ends the run with a fingerprinted *RunError
// and the partial statistics gathered so far, and lands at the same
// point on every rerun.
func TestRunCtxCancelMidRun(t *testing.T) {
	prof, _ := workload.ProfileByName("vips")
	run := func() (Result, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		factory := func(p pcm.Params) schemes.Scheme {
			return &cancelAtPlan{Scheme: schemes.NewDCW(p), n: 20, cancel: cancel}
		}
		return RunCtx(ctx, prof, factory, smallConfig())
	}
	res, err := run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	var re *RunError
	if !errors.As(err, &re) || re.Fp.Workload != "vips" || re.Fp.Cycle <= 0 {
		t.Fatalf("run error lacks a fingerprint with an abort cycle: %v", err)
	}
	if res.Ctrl.Writes == 0 {
		t.Error("no writes before the cancellation; the test exercised nothing")
	}
	again, err2 := run()
	var re2 *RunError
	if !errors.As(err2, &re2) || re2.Fp != re.Fp || !reflect.DeepEqual(again, res) {
		t.Errorf("rerun aborted differently: %+v vs %+v", re2, re.Fp)
	}
}

// TestRunCtxSimTimeBudgetFinalizesSampler is the sampler-lifecycle
// regression test: when the watchdog aborts a run mid-epoch, the
// telemetry sampler must stop cleanly and export the partial epoch —
// one final sample stamped at the abort time.
func TestRunCtxSimTimeBudgetFinalizesSampler(t *testing.T) {
	prof, _ := workload.ProfileByName("vips")
	cfg := smallConfig()
	cfg.Epoch = 3 * units.Microsecond
	cfg.MaxSimTime = 10 * units.Microsecond // aborts mid fourth epoch
	res, err := RunCtx(context.Background(), prof, schemes.NewDCW, cfg)
	var be *sim.BudgetError
	if !errors.As(err, &be) || !be.SimTime {
		t.Fatalf("err = %v, want sim-time *sim.BudgetError", err)
	}
	s := res.Telemetry
	if s == nil {
		t.Fatal("no sampler on the partial result")
	}
	if !s.Stopped() {
		t.Error("sampler still armed after abort")
	}
	times := s.Times()
	if len(times) == 0 {
		t.Fatal("no epochs exported from the aborted run")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T, want *RunError", err)
	}
	last := times[len(times)-1]
	if last != re.Fp.Cycle {
		t.Errorf("final partial epoch stamped at %v, want abort cycle %v", last, re.Fp.Cycle)
	}
	// Full epochs recorded before the abort are at exact boundaries.
	if times[0] != units.Time(cfg.Epoch) {
		t.Errorf("first epoch at %v, want %v", times[0], units.Time(cfg.Epoch))
	}
}

// TestRunTraceCtxBudget: the trace path shares the watchdog plumbing.
func TestRunTraceCtxBudget(t *testing.T) {
	prof, _ := workload.ProfileByName("ferret")
	recs := trace.Generate(prof, 1, 3, pcm.DefaultParams(), 2000)
	cfg := smallConfig()
	cfg.MaxEvents = 50
	_, err := RunTraceCtx(context.Background(), "synthetic", recs, 1, schemes.NewDCW, cfg)
	var be *sim.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T %v, want *sim.BudgetError in chain", err, err)
	}
	var re *RunError
	if !errors.As(err, &re) || re.Fp.Workload != "synthetic" {
		t.Errorf("fingerprint wrong: %v", err)
	}
}
