// Package registry is the name-keyed catalogue of write schemes and the
// grammar that composes them. A scheme name is a base followed by zero
// or more decorators joined with '+' — "dcw+flipmin", "tetris+remap",
// "conventional+flipmin+remap+mlc" — applied left to right, so the last
// decorator is outermost:
//
//	resolve("dcw+flipmin+remap") = remap(flipmin(dcw))
//
// Bases and decorators register with declared traits, and composition is
// trait-checked at resolve time: a flip-minimizing encoder cannot wrap a
// scheme that already drives the flip cells (one inversion tag per data
// unit admits one writer), so "fnw+flipmin" is rejected with an error
// rather than producing a scheme that corrupts its own coding state.
//
// The registry is how every front end — exp sweeps, cmd/pcmsim,
// cmd/tetrisbench, the fleet wire format — agrees on what a scheme name
// means. Canonical spelling matters to the fleet: shard fingerprints
// hash the canonical name (aliases like "baseline" resolve to "dcw"), so
// cached shard results stay correct across spellings while distinct
// compositions stay distinct.
package registry

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"tetriswrite/internal/mlc"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/tetris"
)

// Traits declare the composition-relevant properties of a scheme entry.
type Traits struct {
	// FlipCells reports that the scheme drives per-unit flip cells
	// itself. At most one layer of a composition may do so.
	FlipCells bool
}

// Entry is one resolvable scheme: a base registration or the result of
// applying decorators to one.
type Entry struct {
	// Name is the canonical name: the same string the built scheme's
	// Name() method returns.
	Name string
	// Help is a one-line description for listings.
	Help string
	// Traits are the entry's composition properties.
	Traits Traits
	// Factory builds one scheme instance per bank.
	Factory schemes.Factory
}

// Decorator wraps an Entry into a new Entry, or rejects the composition.
type Decorator struct {
	Name string
	Help string
	Wrap func(Entry) (Entry, error)
}

// Registry maps names to scheme entries and decorators. The zero value
// is empty and usable; Default() returns the shared registry with the
// repository's full catalogue. A Registry is immutable after its
// registration phase and safe for concurrent resolution.
type Registry struct {
	bases   map[string]Entry
	aliases map[string]string
	decos   map[string]Decorator
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		bases:   map[string]Entry{},
		aliases: map[string]string{},
		decos:   map[string]Decorator{},
	}
}

// Register adds a base scheme. The name must be new and must not
// contain the composition separator.
func (r *Registry) Register(e Entry) error {
	if err := r.checkName(e.Name); err != nil {
		return err
	}
	if e.Factory == nil {
		return fmt.Errorf("registry: %q has no factory", e.Name)
	}
	r.bases[e.Name] = e
	return nil
}

// RegisterAlias makes alias resolve to the already-registered base
// canonical.
func (r *Registry) RegisterAlias(alias, canonical string) error {
	if err := r.checkName(alias); err != nil {
		return err
	}
	if _, ok := r.bases[canonical]; !ok {
		return fmt.Errorf("registry: alias %q targets unknown base %q", alias, canonical)
	}
	r.aliases[alias] = canonical
	return nil
}

// RegisterDecorator adds a decorator.
func (r *Registry) RegisterDecorator(d Decorator) error {
	if err := r.checkName(d.Name); err != nil {
		return err
	}
	if d.Wrap == nil {
		return fmt.Errorf("registry: decorator %q has no wrapper", d.Name)
	}
	r.decos[d.Name] = d
	return nil
}

func (r *Registry) checkName(name string) error {
	if name == "" || strings.Contains(name, "+") {
		return fmt.Errorf("registry: invalid name %q", name)
	}
	if _, ok := r.bases[name]; ok {
		return fmt.Errorf("registry: %q already registered", name)
	}
	if _, ok := r.aliases[name]; ok {
		return fmt.Errorf("registry: %q already registered as alias", name)
	}
	if _, ok := r.decos[name]; ok {
		return fmt.Errorf("registry: %q already registered as decorator", name)
	}
	return nil
}

// Bases returns the sorted canonical base names.
func (r *Registry) Bases() []string {
	out := make([]string, 0, len(r.bases))
	for n := range r.bases {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Names returns every resolvable single-segment name — canonical bases
// and aliases — sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.bases)+len(r.aliases))
	for n := range r.bases {
		out = append(out, n)
	}
	for n := range r.aliases {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Decorators returns the sorted decorator names.
func (r *Registry) Decorators() []string {
	out := make([]string, 0, len(r.decos))
	for n := range r.decos {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Resolve parses a possibly-composed name and returns its Entry. The
// error of an unknown segment lists the sorted registered names, and a
// trait-invalid composition says which pair clashed.
func (r *Registry) Resolve(name string) (Entry, error) {
	segs := strings.Split(name, "+")
	base := strings.TrimSpace(segs[0])
	canon := base
	if c, ok := r.aliases[base]; ok {
		canon = c
	}
	e, ok := r.bases[canon]
	if !ok {
		return Entry{}, r.unknownErr("scheme", base)
	}
	for _, seg := range segs[1:] {
		dn := strings.TrimSpace(seg)
		d, ok := r.decos[dn]
		if !ok {
			return Entry{}, r.unknownErr("decorator", dn)
		}
		var err error
		e, err = d.Wrap(e)
		if err != nil {
			return Entry{}, fmt.Errorf("registry: %q: %w", name, err)
		}
	}
	return e, nil
}

// Canonical returns the canonical spelling of a possibly-composed,
// possibly-aliased name: the Name() the built scheme reports. This is
// the identity the fleet fingerprints hash.
func (r *Registry) Canonical(name string) (string, error) {
	e, err := r.Resolve(name)
	if err != nil {
		return "", err
	}
	return e.Name, nil
}

func (r *Registry) unknownErr(kind, name string) error {
	return fmt.Errorf("registry: unknown %s %q (schemes: %s; decorators, composed with '+': %s)",
		kind, name, strings.Join(r.Names(), ", "), strings.Join(r.Decorators(), ", "))
}

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the shared registry holding the repository's full
// scheme catalogue: the six paper schemes (with their table-label
// aliases), the adaptive meta-scheme and the flipmin/remap/mlc
// decorators.
func Default() *Registry {
	defaultOnce.Do(func() {
		defaultReg = New()
		must := func(err error) {
			if err != nil {
				panic(err)
			}
		}
		must(defaultReg.Register(Entry{
			Name: "conventional", Help: "serial worst-case writes, no read",
			Factory: schemes.NewConventional,
		}))
		must(defaultReg.Register(Entry{
			Name: "dcw", Help: "data-comparison write (paper baseline)",
			Factory: schemes.NewDCW,
		}))
		must(defaultReg.Register(Entry{
			Name: "fnw", Help: "Flip-N-Write inversion coding",
			Traits: Traits{FlipCells: true}, Factory: schemes.NewFlipNWrite,
		}))
		must(defaultReg.Register(Entry{
			Name: "twostage", Help: "2-Stage-Write: RESET stage then packed SET stage",
			Traits: Traits{FlipCells: true}, Factory: schemes.NewTwoStage,
		}))
		must(defaultReg.Register(Entry{
			Name: "threestage", Help: "Three-Stage-Write: FNW read+flip over 2-Stage",
			Traits: Traits{FlipCells: true}, Factory: schemes.NewThreeStage,
		}))
		must(defaultReg.Register(Entry{
			Name: "tetris", Help: "Tetris Write pulse packing (the paper's scheme)",
			Traits: Traits{FlipCells: true}, Factory: tetris.New,
		}))
		must(defaultReg.Register(Entry{
			Name: "adaptive", Help: "per-epoch telemetry-driven selection among dcw/fnw/twostage/tetris",
			Traits: Traits{FlipCells: true}, // candidates include flip-cell schemes
			Factory: schemes.NewAdaptive([]schemes.Candidate{
				{Name: "dcw", Factory: schemes.NewDCW},
				{Name: "fnw", Factory: schemes.NewFlipNWrite},
				{Name: "twostage", Factory: schemes.NewTwoStage},
				{Name: "tetris", Factory: tetris.New},
			}),
		}))
		must(defaultReg.RegisterAlias("baseline", "dcw"))
		must(defaultReg.RegisterAlias("flip-n-write", "fnw"))
		must(defaultReg.RegisterAlias("2stage", "twostage"))
		must(defaultReg.RegisterAlias("3stage", "threestage"))

		must(defaultReg.RegisterDecorator(Decorator{
			Name: "flipmin", Help: "WIRE-style flip-minimizing encoder",
			Wrap: func(e Entry) (Entry, error) {
				if e.Traits.FlipCells {
					return Entry{}, fmt.Errorf("flipmin cannot wrap %q: it already drives flip cells", e.Name)
				}
				inner := e.Factory
				return Entry{
					Name:   e.Name + "+flipmin",
					Help:   e.Help + " + flip-minimizing encoder",
					Traits: Traits{FlipCells: true},
					Factory: func(par pcm.Params) schemes.Scheme {
						return schemes.NewFlipMin(inner(par), par)
					},
				}, nil
			},
		}))
		must(defaultReg.RegisterDecorator(Decorator{
			Name: "remap", Help: "DATACON-style content-aware wear remapping",
			Wrap: func(e Entry) (Entry, error) {
				inner := e.Factory
				out := e
				out.Name = e.Name + "+remap"
				out.Help = e.Help + " + content-aware remapping"
				out.Factory = func(par pcm.Params) schemes.Scheme {
					return schemes.NewRemap(inner(par), par)
				}
				return out, nil
			},
		}))
		must(defaultReg.RegisterDecorator(Decorator{
			Name: "mlc", Help: "MLC program-and-verify latency model (stub)",
			Wrap: func(e Entry) (Entry, error) {
				inner := e.Factory
				out := e
				out.Name = e.Name + "+mlc"
				out.Help = e.Help + " + MLC P&V latency"
				out.Factory = func(par pcm.Params) schemes.Scheme {
					s, err := mlc.NewCellMode(inner(par), par, mlc.DefaultParams())
					if err != nil {
						panic(err) // DefaultParams always validates
					}
					return s
				}
				return out, nil
			},
		}))
	})
	return defaultReg
}
