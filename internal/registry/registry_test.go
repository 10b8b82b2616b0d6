package registry_test

import (
	"bytes"
	"slices"
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
	want := []string{"conventional", "dcw", "fnw", "tetris", "threestage", "twostage"}
	if got := r.Bases(); !slices.Equal(got, want) {
		t.Errorf("Bases() = %v, want %v", got, want)
	}
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
	// The six bases and these four aliases are the whole single-segment
	// catalogue, and remap the only decorator.
	if n := len(r.Names()); n != 10 {
		t.Errorf("Names() has %d entries, want 6 bases + 4 aliases: %v", n, r.Names())
	}
	if got := r.Decorators(); !slices.Equal(got, []string{"remap"}) {
		t.Errorf("Decorators() = %v, want [remap]", got)
	}
	// Aliases compose too, and canonicalize through the base.
	if got, err := r.Canonical("baseline+remap"); err != nil || got != "dcw+remap" {
		t.Errorf("Canonical(baseline+remap) = %q, %v; want dcw+remap", got, err)
	}
}

// TestComposition checks the remap decorator wraps every base, and the
// composed entry's Name matches both the spelling and the built scheme.
func TestComposition(t *testing.T) {
	r := registry.Default()
	par := pcm.DefaultParams()
	for _, base := range r.Bases() {
		name := base + "+remap"
		e, err := r.Resolve(name)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", name, err)
		}
		if e.Name != name {
			t.Errorf("Resolve(%q).Name = %q", name, e.Name)
		}
		s := e.Factory(par)
		if got := s.Name(); got != name {
			t.Errorf("built scheme for %q reports Name() = %q", name, got)
		}
		// The decorator's counters are what telemetry exports for it.
		sp, ok := s.(schemes.StatProvider)
		if !ok {
			t.Fatalf("%s does not implement StatProvider", name)
		}
		series := map[string]bool{}
		sp.SchemeStats(func(n string, _ float64) { series[n] = true })
		if !series["scheme.remap.migrations"] {
			t.Errorf("%s exports no scheme.remap.migrations: %v", name, series)
		}
	}
	// Whitespace around segments is tolerated; the canonical name is tight.
	if got, err := r.Canonical(" baseline + remap "); err != nil || got != "dcw+remap" {
		t.Errorf("Canonical(\" baseline + remap \") = %q, %v", got, err)
	}
}

// TestUnknownNameError: unknown segments — typos, and the names of the
// deleted adaptive scheme and flipmin/mlc decorators — fail with the
// sorted catalogue, so a typo at any front end tells the user what is
// available.
func TestUnknownNameError(t *testing.T) {
	r := registry.Default()
	for _, tc := range []struct{ name, kind string }{
		{"dwc", "unknown scheme"}, {"adaptive", "unknown scheme"},
		{"dcw+flipmin", "unknown decorator"}, {"tetris+remap+mlc", "unknown decorator"},
		{"dcw+remp", "unknown decorator"},
	} {
		_, err := r.Resolve(tc.name)
		if err == nil {
			t.Fatalf("Resolve(%s) succeeded", tc.name)
		}
		if !strings.Contains(err.Error(), tc.kind) {
			t.Errorf("Resolve(%s) = %v; want %s", tc.name, err, tc.kind)
		}
		for _, want := range append(r.Names(), r.Decorators()...) {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("unknown-scheme error omits %q: %v", want, err)
			}
		}
		_, list, _ := strings.Cut(err.Error(), "schemes: ")
		if idx := strings.Index(list, "2stage"); idx < 0 || idx > strings.Index(list, "tetris") {
			t.Errorf("catalogue not sorted in error: %v", err)
		}
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
		Name: "d", Wrap: func(e registry.Entry) registry.Entry { return e },
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

// composedNames are the remap compositions the oracle tests add to the
// bases: over a tagless scheme and over two that keep flip tags.
var composedNames = []string{"dcw+remap", "tetris+remap", "twostage+remap"}

// TestComposedSchemesDecode drives every catalogued scheme, bare and
// composed with remap, through hundreds of deterministic writes to a set
// of lines against the encoded-cell oracle: each plan must validate
// structurally, respect the power budget, and leave the array decoding
// to exactly the written line — the single-XOR decode invariant the
// decorator promises to preserve.
func TestComposedSchemesDecode(t *testing.T) {
	par := pcm.DefaultParams()
	r := registry.Default()
	for _, name := range append(r.Bases(), composedNames...) {
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
// power cut: every catalogued scheme, bare and composed with remap, is
// torn at three seeded pulse boundaries (only a schedule-order prefix of
// the plan lands) and then driven through the scheme-side recovery
// contract — restore the coding state from the physical flip cells,
// replan from the decoded contents — after which the array must decode
// to exactly the intended line again.
func TestComposedSchemesCrashRecovery(t *testing.T) {
	par := pcm.DefaultParams()
	r := registry.Default()
	for _, name := range append(r.Bases(), composedNames...) {
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
