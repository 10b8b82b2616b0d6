package system

import (
	"path/filepath"
	"reflect"
	"testing"

	"tetriswrite/internal/guard"
	"tetriswrite/internal/registry"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/workload"
)

// composedNames are the registry compositions the full-system
// determinism gates sweep: every decorator, a two-deep stack, and the
// adaptive meta-scheme bare and decorated.
var composedNames = []string{
	"dcw+flipmin", "tetris+remap", "dcw+flipmin+remap",
	"dcw+mlc", "adaptive", "adaptive+remap",
}

func composedFactory(t *testing.T, name string) schemes.Factory {
	t.Helper()
	e, err := registry.Default().Resolve(name)
	if err != nil {
		t.Fatal(err)
	}
	return e.Factory
}

// TestComposedSchemeCrossCheck extends the engine cross-check gate to
// registry-composed schemes: over the full 8-workload sweep, each
// composition must reproduce its testdata/serial_golden.json digest
// where the golden has the cell, and must be bit-identical across two
// runs (replay determinism). The second property is what the adaptive
// meta-scheme could most easily break — its epoch decisions read live
// queue depths, so they must be a pure function of the simulated event
// order, never of host scheduling.
func TestComposedSchemeCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload x composed-scheme sweep")
	}
	golden := filepath.Join("testdata", "serial_golden.json")
	want := loadGolden(t, golden)
	for _, prof := range workload.Profiles() {
		for _, name := range composedNames {
			prof, name := prof, name
			cell := prof.Name + "/" + name
			t.Run(cell, func(t *testing.T) {
				t.Parallel()
				factory := composedFactory(t, name)
				cfg := Config{InstrBudget: 60_000, Seed: 7}
				first, err := Run(prof, factory, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if w, ok := want[cell]; ok {
					if d := canonicalDigest(t, first); d != w {
						t.Errorf("Result drifted from %s: got %s, want %s", golden, d, w)
					}
				}
				again, err := Run(prof, factory, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(first, again) {
					t.Errorf("replay diverged:\nfirst:  %+v\nsecond: %+v", first, again)
				}
			})
		}
	}
}

// TestComposedSchemeGuarded runs every composition under the invariant
// guard with deep checks on two contrasting workloads (write-heavy
// canneal, read-heavy vips): no violation, and the guarded result is
// bit-identical to the unguarded one. Deep checks replay every plan on
// the shadow array, so this is the system-level form of the decode
// oracle: decorators and the adaptive handover preserve the single-XOR
// decode invariant under the controller's real write stream.
func TestComposedSchemeGuarded(t *testing.T) {
	for _, wl := range []string{"canneal", "vips"} {
		prof, err := workload.ProfileByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range composedNames {
			t.Run(wl+"/"+name, func(t *testing.T) {
				factory := composedFactory(t, name)
				cfg := smallConfig()
				cfg.InstrBudget = 20_000
				plain, err := Run(prof, factory, cfg)
				if err != nil {
					t.Fatalf("unguarded run: %v", err)
				}
				cfg.Guard = guard.Config{Enabled: true, DeepChecks: true}
				guarded, err := Run(prof, factory, cfg)
				if err != nil {
					t.Fatalf("guarded run: %v", err)
				}
				if guarded.Guard == nil || guarded.Guard.DeepReplays != guarded.Guard.WritePlans {
					t.Fatalf("guard stats inconsistent: %+v", guarded.Guard)
				}
				guarded.Guard = nil
				if !reflect.DeepEqual(plain, guarded) {
					t.Errorf("guarded run differs:\nplain:   %+v\nguarded: %+v", plain, guarded)
				}
			})
		}
	}
}
