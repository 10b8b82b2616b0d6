package exp

import (
	"reflect"
	"strings"
	"testing"
)

// TestResolveSchemesComposed checks the registry path of ResolveSchemes:
// paper labels keep their table spelling, aliases and compositions
// resolve to canonical names, and unknown names, the names of the
// deleted adaptive scheme and flipmin decorator among them, fail with
// the sorted catalogue.
func TestResolveSchemesComposed(t *testing.T) {
	set, err := ResolveSchemes([]string{"baseline", "flip-n-write", "baseline+remap", "conventional", "2stage"})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(set))
	for i, nf := range set {
		got[i] = nf.Name
	}
	// "baseline" and "2stage" are paper table labels, kept verbatim so
	// historical tables render byte-identically; registry-only names are
	// displayed canonically.
	want := []string{"baseline", "fnw", "dcw+remap", "conventional", "2stage"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resolved names %v, want %v", got, want)
	}

	for _, bad := range []string{"dwc", "dcw+flipmin", "adaptive"} {
		_, err = ResolveSchemes([]string{"dcw", bad})
		if err == nil {
			t.Fatalf("ResolveSchemes(%s) succeeded", bad)
		}
		for _, frag := range []string{"dcw", "tetris", "conventional", "baseline", "flip-n-write", "remap"} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("unknown-scheme error omits %q: %v", frag, err)
			}
		}
	}
}

// TestComposedSweepParallelIdentity is the harness-level determinism
// gate for sweeps named through the registry: a sweep over every
// registry scheme and a remap composition must produce bit-identical
// FullResults at Parallel 1 and Parallel 4. Scheme state lives per bank
// inside each cell's own simulation, so no concurrency degree may leak
// into the numbers.
func TestComposedSweepParallelIdentity(t *testing.T) {
	opt := fastOptions()
	opt.Schemes = []string{"conventional", "dcw", "fnw", "twostage", "threestage", "tetris", "tetris+remap"}
	opt.Parallel = 1
	serial, err := RunFullSystem(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallel = 4
	par, err := RunFullSystem(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Results, par.Results) {
		t.Error("composed sweep differs between Parallel=1 and Parallel=4")
	}
	if g, w := serial.Figure12().String(), par.Figure12().String(); g != w {
		t.Errorf("rendered Figure 12 differs:\nserial:\n%s\nparallel:\n%s", g, w)
	}
}
