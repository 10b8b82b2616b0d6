package system

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"tetriswrite/internal/guard"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/workload"
)

type namedFactory struct {
	name    string
	factory schemes.Factory
}

var allFactories = []namedFactory{
	{"dcw", schemes.NewDCW},
	{"fnw", schemes.NewFlipNWrite},
	{"2stage", schemes.NewTwoStage},
	{"3stage", schemes.NewThreeStage},
	{"tetris", tetris.New},
}

// TestGuardViolationFreeAndBitIdentical is the headline acceptance test
// of the invariant guard: every seed workload under every scheme, the
// paper's five and conventional, runs to completion with deep checks
// enabled and no violation, and the guarded run's results are
// bit-identical to the unguarded run's — the guard observes, never
// perturbs. Deep checks replay every plan on the shadow array, so this
// is also the system-level form of the decode oracle.
func TestGuardViolationFreeAndBitIdentical(t *testing.T) {
	for _, prof := range workload.Profiles() {
		for _, mk := range append([]namedFactory{{"conventional", schemes.NewConventional}}, allFactories...) {
			t.Run(prof.Name+"/"+mk.name, func(t *testing.T) {
				cfg := smallConfig()
				cfg.InstrBudget = 20_000
				plain, err := Run(prof, mk.factory, cfg)
				if err != nil {
					t.Fatalf("unguarded run: %v", err)
				}
				cfg.Guard = guard.Config{Enabled: true, DeepChecks: true}
				guarded, err := Run(prof, mk.factory, cfg)
				if err != nil {
					t.Fatalf("guarded run: %v", err)
				}
				if guarded.Guard == nil || guarded.Guard.DeepReplays != guarded.Guard.WritePlans {
					t.Fatalf("guard stats inconsistent: %+v", guarded.Guard)
				}
				// Low-WPKI workloads may issue no writes in 20k
				// instructions; when writes flowed, plans were checked.
				if guarded.Ctrl.Writes > 0 && guarded.Guard.WritePlans == 0 {
					t.Fatalf("writes flowed but no plans checked: %+v", guarded.Guard)
				}
				guarded.Guard = nil // only difference allowed
				if !reflect.DeepEqual(plain, guarded) {
					t.Errorf("guarded run differs from unguarded run:\nplain:   %+v\nguarded: %+v", plain, guarded)
				}
			})
		}
	}
}

// overBudgetScheme wraps a real scheme but collapses every pulse to
// start at offset zero, concentrating the whole write current into one
// instant — a deliberately broken scheduler the power check must catch.
type overBudgetScheme struct {
	schemes.Scheme
}

func (o overBudgetScheme) PlanWrite(addr pcm.LineAddr, old, new []byte) schemes.Plan {
	p := o.Scheme.PlanWrite(addr, old, new)
	for i := range p.Pulses {
		p.Pulses[i].Start = 0
	}
	w := p.TSet
	if p.TReset > w {
		w = p.TReset
	}
	p.Write = w
	return p
}

// TestGuardCatchesOverBudgetScheme: the broken scheme trips the power
// check on its first planned write; the run stops with a
// *guard.ViolationError naming the budget and carrying the fingerprint.
func TestGuardCatchesOverBudgetScheme(t *testing.T) {
	prof, _ := workload.ProfileByName("vips")
	cfg := smallConfig()
	cfg.InstrBudget = 50_000
	cfg.Guard = guard.Config{Enabled: true}
	factory := func(par pcm.Params) schemes.Scheme {
		return overBudgetScheme{schemes.NewDCW(par)}
	}
	res, err := Run(prof, factory, cfg)
	if err == nil {
		t.Fatal("over-budget scheme ran without a violation")
	}
	var v *guard.ViolationError
	if !errors.As(err, &v) {
		t.Fatalf("err = %T %v, want *guard.ViolationError", err, err)
	}
	if v.Kind != guard.KindPower {
		t.Fatalf("violation kind %s, want %s: %v", v.Kind, guard.KindPower, v)
	}
	if !strings.Contains(v.Detail, "budget") {
		t.Errorf("detail does not name the budget: %q", v.Detail)
	}
	if v.Fp.Workload != "vips" || v.Fp.Scheme != "dcw" || v.Fp.Seed != 7 {
		t.Errorf("fingerprint wrong: %+v", v.Fp)
	}
	if v.Fp.Cycle <= 0 {
		t.Errorf("violation cycle not stamped: %+v", v.Fp)
	}
	// The partial result is still populated up to the stop.
	if res.Workload != "vips" || res.Guard == nil {
		t.Errorf("partial result missing: %+v", res)
	}
}

// panicScheme panics while planning its nth write — a stand-in for any
// bug deep inside the simulation.
type panicScheme struct {
	schemes.Scheme
	n     int
	count int
}

func (p *panicScheme) PlanWrite(addr pcm.LineAddr, old, new []byte) schemes.Plan {
	p.count++
	if p.count >= p.n {
		panic("synthetic scheme bug")
	}
	return p.Scheme.PlanWrite(addr, old, new)
}

// TestPanicBecomesError: a panic inside the engine surfaces as a
// *PanicError with the run fingerprint instead of crashing the caller.
func TestPanicBecomesError(t *testing.T) {
	prof, _ := workload.ProfileByName("vips")
	cfg := smallConfig()
	cfg.InstrBudget = 50_000
	factory := func(par pcm.Params) schemes.Scheme {
		return &panicScheme{Scheme: schemes.NewDCW(par), n: 3}
	}
	_, err := RunCtx(context.Background(), prof, factory, cfg)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *PanicError", err, err)
	}
	if pe.Value != "synthetic scheme bug" {
		t.Errorf("panic value = %v", pe.Value)
	}
	if pe.Fp.Workload != "vips" || pe.Fp.Scheme != "dcw" {
		t.Errorf("fingerprint wrong: %+v", pe.Fp)
	}
	if len(pe.Stack) == 0 {
		t.Error("no stack captured")
	}
	if !strings.Contains(pe.Error(), "panic during run") {
		t.Errorf("message: %q", pe.Error())
	}
}
