package exp

import (
	"context"
	"errors"
	"testing"
	"time"

	"tetriswrite/internal/system"
)

// TestParallelSweepBitIdenticalToSerial is the supervisor's core
// promise: the same sweep run serially and with four workers renders
// byte-identical tables, because every cell owns its seeded state and
// the pool only places results positionally. Jobs are handed out in
// workload-major order, so the four workers start on four scheme cells
// of one workload and replay its one recording at the same time: under
// -race this also checks that sharing a recording is read-only.
func TestParallelSweepBitIdenticalToSerial(t *testing.T) {
	opt := fastOptions()
	opt.InstrBudget = 10_000
	opt.Sequential = true
	serial, err := RunFullSystem(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Sequential = false
	opt.Parallel = 4
	par, err := RunFullSystemCtx(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, render := range []struct {
		name string
		of   func(*FullResults) string
	}{
		{"fig11", func(fr *FullResults) string { return fr.Figure11().String() }},
		{"fig12", func(fr *FullResults) string { return fr.Figure12().String() }},
		{"fig13", func(fr *FullResults) string { return fr.Figure13().String() }},
		{"fig14", func(fr *FullResults) string { return fr.Figure14().String() }},
		{"energy", func(fr *FullResults) string { return fr.EnergyTable().String() }},
	} {
		if s, p := render.of(serial), render.of(par); s != p {
			t.Errorf("%s differs between serial and parallel sweeps:\nserial:\n%s\nparallel:\n%s",
				render.name, s, p)
		}
	}
}

// TestSweepCancellationKeepsPartials: cancelling mid-sweep returns the
// completed cells and marks the rest, instead of discarding everything.
func TestSweepCancellationKeepsPartials(t *testing.T) {
	opt := fastOptions()
	opt.InstrBudget = 10_000
	opt.Sequential = true
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancel()
	fr, err := RunFullSystemCtx(ctx, opt)
	if err == nil {
		t.Fatal("cancelled sweep reported success")
	}
	if fr == nil {
		t.Fatal("cancelled sweep returned no partial results")
	}
	if fr.Failed() != len(fr.Profiles)*len(fr.Schemes) {
		t.Errorf("Failed() = %d, want all %d cells", fr.Failed(), len(fr.Profiles)*len(fr.Schemes))
	}
	// Partial tables still render without panicking.
	_ = fr.Figure13().String()
}

// TestSweepRunTimeout: a wall-clock budget far too small for any cell
// aborts each simulation through the context plumbing, and the errors
// carry the run fingerprints.
func TestSweepRunTimeout(t *testing.T) {
	opt := fastOptions()
	opt.InstrBudget = 50_000_000 // far more work than 1ms of wall clock
	opt.Parallel = 2
	opt.RunTimeout = time.Millisecond
	fr, err := RunFullSystemCtx(context.Background(), opt)
	if err == nil {
		t.Fatal("sweep with 1ms per-cell budget reported success")
	}
	var re *system.RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T %v, want *system.RunError in chain", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded in chain", err)
	}
	if fr.Failed() == 0 {
		t.Error("no cells marked failed")
	}
}
