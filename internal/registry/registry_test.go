package registry_test

import (
	"bytes"
	"strings"
	"testing"

	"tetriswrite/internal/pcm"
	"tetriswrite/internal/registry"
	"tetriswrite/internal/schemes"
)

// TestBasesResolve checks every catalogued base builds a scheme whose
// Name() matches the entry's canonical name — the property the fleet
// fingerprint and the telemetry labels both lean on.
func TestBasesResolve(t *testing.T) {
	r := registry.Default()
	par := pcm.DefaultParams()
	for _, name := range r.Bases() {
		e, err := r.Resolve(name)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", name, err)
		}
		if e.Name != name {
			t.Errorf("Resolve(%q).Name = %q", name, e.Name)
		}
		if got := e.Factory(par).Name(); got != name {
			t.Errorf("built scheme for %q reports Name() = %q", name, got)
		}
	}
}

func TestAliases(t *testing.T) {
	r := registry.Default()
	for alias, want := range map[string]string{
		"baseline":     "dcw",
		"flip-n-write": "fnw",
		"2stage":       "twostage",
		"3stage":       "threestage",
	} {
		got, err := r.Canonical(alias)
		if err != nil {
			t.Fatalf("Canonical(%q): %v", alias, err)
		}
		if got != want {
			t.Errorf("Canonical(%q) = %q, want %q", alias, got, want)
		}
	}
	// Aliases compose too, and canonicalize through the base.
	if got, err := r.Canonical("baseline+remap"); err != nil || got != "dcw+remap" {
		t.Errorf("Canonical(baseline+remap) = %q, %v; want dcw+remap", got, err)
	}
}

// TestComposition checks decorators apply left to right and the composed
// entry's Name matches both the spelling and the built scheme.
func TestComposition(t *testing.T) {
	r := registry.Default()
	par := pcm.DefaultParams()
	for _, name := range []string{
		"dcw+flipmin", "conventional+flipmin", "dcw+remap", "tetris+remap",
		"fnw+remap", "dcw+flipmin+remap", "dcw+mlc", "tetris+remap+mlc",
		"adaptive+remap",
	} {
		e, err := r.Resolve(name)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", name, err)
		}
		if e.Name != name {
			t.Errorf("Resolve(%q).Name = %q", name, e.Name)
		}
		if got := e.Factory(par).Name(); got != name {
			t.Errorf("built scheme for %q reports Name() = %q", name, got)
		}
	}
	// Whitespace around segments is tolerated; the canonical name is tight.
	if got, err := r.Canonical("dcw + flipmin"); err != nil || got != "dcw+flipmin" {
		t.Errorf("Canonical(\"dcw + flipmin\") = %q, %v", got, err)
	}
}

// TestFlipMinTraitRejection: one inversion tag per data unit admits one
// writer, so flipmin must refuse to wrap any scheme that already drives
// the flip cells.
func TestFlipMinTraitRejection(t *testing.T) {
	r := registry.Default()
	for _, name := range []string{
		"fnw+flipmin", "2stage+flipmin", "twostage+flipmin",
		"threestage+flipmin", "tetris+flipmin", "adaptive+flipmin",
		"dcw+flipmin+flipmin", // flipmin itself drives flip cells
	} {
		_, err := r.Resolve(name)
		if err == nil {
			t.Fatalf("Resolve(%q) succeeded; want flip-cell clash", name)
		}
		if !strings.Contains(err.Error(), "flip cells") {
			t.Errorf("Resolve(%q) error %q does not name the clash", name, err)
		}
	}
}

// TestUnknownNameError: unknown segments fail with the sorted catalogue,
// so a typo at any front end tells the user what is available.
func TestUnknownNameError(t *testing.T) {
	r := registry.Default()
	_, err := r.Resolve("dwc")
	if err == nil {
		t.Fatal("Resolve(dwc) succeeded")
	}
	for _, want := range append(r.Names(), r.Decorators()...) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-scheme error omits %q: %v", want, err)
		}
	}
	if idx := strings.Index(err.Error(), "2stage"); idx < 0 ||
		idx > strings.Index(err.Error(), "tetris") {
		t.Errorf("catalogue not sorted in error: %v", err)
	}
	_, err = r.Resolve("dcw+remp")
	if err == nil || !strings.Contains(err.Error(), "unknown decorator") {
		t.Errorf("Resolve(dcw+remp) = %v; want unknown decorator", err)
	}
}

func TestRegistrationErrors(t *testing.T) {
	r := registry.New()
	ok := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	bad := func(err error, frag string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("got %v, want error containing %q", err, frag)
		}
	}
	ok(r.Register(registry.Entry{Name: "a", Factory: schemes.NewDCW}))
	ok(r.RegisterAlias("b", "a"))
	ok(r.RegisterDecorator(registry.Decorator{
		Name: "d", Wrap: func(e registry.Entry) (registry.Entry, error) { return e, nil },
	}))

	bad(r.Register(registry.Entry{Name: "a", Factory: schemes.NewDCW}), "already registered")
	bad(r.Register(registry.Entry{Name: "b", Factory: schemes.NewDCW}), "alias")
	bad(r.Register(registry.Entry{Name: "d", Factory: schemes.NewDCW}), "decorator")
	bad(r.Register(registry.Entry{Name: "", Factory: schemes.NewDCW}), "invalid name")
	bad(r.Register(registry.Entry{Name: "x+y", Factory: schemes.NewDCW}), "invalid name")
	bad(r.Register(registry.Entry{Name: "c"}), "no factory")
	bad(r.RegisterAlias("e", "zzz"), "unknown base")
	bad(r.RegisterDecorator(registry.Decorator{Name: "e"}), "no wrapper")
}

// splitmix64 is the deterministic byte stream behind the oracle test.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TestComposedSchemesDecode drives every composed scheme the PR ships
// through hundreds of deterministic writes against the encoded-cell
// oracle: each plan must validate structurally, respect the power
// budget, and leave the array decoding to exactly the written line —
// the single-XOR decode invariant every decorator promises to preserve.
func TestComposedSchemesDecode(t *testing.T) {
	names := []string{
		"dcw+flipmin", "conventional+flipmin", "dcw+remap", "tetris+remap",
		"twostage+remap", "dcw+flipmin+remap", "dcw+mlc", "dcw+flipmin+mlc",
		"tetris+remap+mlc", "adaptive", "adaptive+remap",
	}
	par := pcm.DefaultParams()
	r := registry.Default()
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			e, err := r.Resolve(name)
			if err != nil {
				t.Fatal(err)
			}
			s := e.Factory(par)
			rec, _ := s.(schemes.PlanRecycler)
			arr := schemes.NewArray(par)
			rng := splitmix64(0xC0FFEE)
			const lines = 24
			logical := make([][]byte, lines)
			for i := range logical {
				logical[i] = make([]byte, par.LineBytes)
			}
			writes := 400
			if testing.Short() {
				writes = 120
			}
			for i := 0; i < writes; i++ {
				li := int(rng.next() % lines)
				addr := pcm.LineAddr(li)
				next := make([]byte, par.LineBytes)
				copy(next, logical[li])
				// Mostly sparse updates with occasional dense rewrites,
				// so both the flip-heavy and flip-light paths run.
				flips := 1 + int(rng.next()%12)
				if rng.next()%8 == 0 {
					flips = par.LineBytes * 4
				}
				for f := 0; f < flips; f++ {
					b := rng.next()
					next[b%uint64(par.LineBytes)] ^= 1 << (b >> 32 % 8)
				}
				p := s.PlanWrite(addr, logical[li], next)
				if err := arr.CheckWrite(addr, p, next); err != nil {
					t.Fatalf("write %d to line %d under %s: %v", i, li, name, err)
				}
				if rec != nil {
					rec.RecyclePlan(p)
				}
				copy(logical[li], next)
			}
		})
	}
}

// TestComposedSchemesCrashRecovery extends the decode oracle across a
// power cut: every composition is torn at three seeded pulse boundaries
// (only a schedule-order prefix of the plan lands) and then driven
// through the scheme-side recovery contract — restore the coding state
// from the physical flip cells, replan from the decoded contents —
// after which the array must decode to exactly
// the intended line again.
func TestComposedSchemesCrashRecovery(t *testing.T) {
	names := []string{
		"dcw+flipmin", "conventional+flipmin", "dcw+remap", "tetris+remap",
		"twostage+remap", "dcw+flipmin+remap", "dcw+mlc", "dcw+flipmin+mlc",
		"tetris+remap+mlc", "adaptive", "adaptive+remap",
	}
	par := pcm.DefaultParams()
	r := registry.Default()
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			e, err := r.Resolve(name)
			if err != nil {
				t.Fatal(err)
			}
			s := e.Factory(par)
			rec, _ := s.(schemes.PlanRecycler)
			arr := schemes.NewArray(par)
			rng := splitmix64(0xDECAFBAD)
			const lines = 24
			logical := make([][]byte, lines)
			for i := range logical {
				logical[i] = make([]byte, par.LineBytes)
			}
			writes := 120
			if testing.Short() {
				writes = 48
			}
			crashAt := map[int]bool{writes / 4: true, writes / 2: true, 3 * writes / 4: true}
			torn := 0
			for i := 0; i < writes; i++ {
				li := int(rng.next() % lines)
				addr := pcm.LineAddr(li)
				next := make([]byte, par.LineBytes)
				copy(next, logical[li])
				flips := 1 + int(rng.next()%12)
				if rng.next()%8 == 0 {
					flips = par.LineBytes * 4
				}
				for f := 0; f < flips; f++ {
					b := rng.next()
					next[b%uint64(par.LineBytes)] ^= 1 << (b >> 32 % 8)
				}
				p := s.PlanWrite(addr, logical[li], next)
				if !crashAt[i] {
					if err := arr.CheckWrite(addr, p, next); err != nil {
						t.Fatalf("write %d to line %d under %s: %v", i, li, name, err)
					}
					if rec != nil {
						rec.RecyclePlan(p)
					}
					copy(logical[li], next)
					continue
				}

				// Power cut: only the first k pulses (schedule order) land;
				// k < len guarantees at least one pulse is lost.
				cut := p
				cut.Pulses = append([]schemes.Pulse(nil), p.Pulses...)
				cut.SortPulses()
				if n := len(cut.Pulses); n > 0 {
					cut.Pulses = cut.Pulses[:int(rng.next()%uint64(n))]
				}
				arr.Apply(addr, cut)
				if rec != nil {
					rec.RecyclePlan(p)
				}

				dec := append([]byte(nil), arr.Logical(addr)...)
				phys := arr.FlipTags(addr)
				if ft, ok := s.(schemes.FlipTagger); ok {
					ft.RestoreFlipTags(addr, phys)
				} else if phys != 0 {
					// Recovery counts a tagless scheme's tags as 0.
					t.Fatalf("tagless %s left flip cells %#x on line %d", name, phys, li)
				}
				if !bytes.Equal(dec, next) {
					torn++
					p2 := s.PlanWrite(addr, dec, next)
					if err := arr.CheckWrite(addr, p2, next); err != nil {
						t.Fatalf("recovery replan of write %d to line %d under %s: %v", i, li, name, err)
					}
					if rec != nil {
						rec.RecyclePlan(p2)
					}
				}
				copy(logical[li], next)
			}
			if torn == 0 {
				t.Error("no crash left a torn line; the recovery path never ran")
			}
		})
	}
}

// TestAdaptiveStats checks the meta-scheme's telemetry contract: the
// stat series set is complete and stable immediately after construction
// (the memctrl sampler discovers series names at registration time,
// before any write), and the activity counters move once writes flow.
func TestAdaptiveStats(t *testing.T) {
	par := pcm.DefaultParams()
	e, err := registry.Default().Resolve("adaptive")
	if err != nil {
		t.Fatal(err)
	}
	s := e.Factory(par)
	sp, ok := s.(schemes.StatProvider)
	if !ok {
		t.Fatal("adaptive does not implement StatProvider")
	}
	series := func() map[string]float64 {
		out := map[string]float64{}
		sp.SchemeStats(func(n string, v float64) { out[n] = v })
		return out
	}
	before := series()
	for _, want := range []string{
		"scheme.adaptive.switches", "scheme.adaptive.epochs",
		"scheme.adaptive.handovers", "scheme.adaptive.sticky_writes",
		"scheme.adaptive.active",
	} {
		if _, ok := before[want]; !ok {
			t.Errorf("series %q absent before first write", want)
		}
	}
	rng := splitmix64(7)
	old := make([]byte, par.LineBytes)
	next := make([]byte, par.LineBytes)
	for i := 0; i < 1024; i++ {
		for b := range next {
			next[b] = old[b]
		}
		next[rng.next()%uint64(par.LineBytes)] ^= 0xFF
		p := s.PlanWrite(pcm.LineAddr(i%16), old, next)
		_ = p
		copy(old, next)
	}
	after := series()
	if len(after) != len(before) {
		t.Errorf("series set changed across writes: %d -> %d", len(before), len(after))
	}
	if after["scheme.adaptive.epochs"] == 0 {
		t.Error("no epochs recorded after 1024 writes")
	}
}
