// Package registry is the name-keyed catalogue of write schemes: the
// six the paper compares, each under its canonical name, plus the
// paper's table labels as aliases ("baseline" for "dcw", "2stage" for
// "twostage"). A name may add decorators joined with '+', applied left
// to right, so the last decorator is outermost:
//
//	resolve("baseline+remap") = remap(dcw)
//
// The one registered decorator is remap.
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

	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/tetris"
)

// Entry is one resolvable scheme: a base registration or the result of
// applying decorators to one.
type Entry struct {
	// Name is the canonical name: the same string the built scheme's
	// Name() method returns.
	Name string
	// Factory builds one scheme instance per bank.
	Factory schemes.Factory
}

// Decorator wraps an Entry into a new Entry.
type Decorator struct {
	Name string
	Wrap func(Entry) Entry
}

// Registry maps names to scheme entries and decorators. The zero value
// is not usable;
// New returns an empty registry and Default() the shared one with the
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

// Resolve parses a possibly-composed name, ignoring whitespace around
// its segments, and returns its Entry. The error of an unknown segment
// lists the sorted registered names.
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
		e = d.Wrap(e)
	}
	return e, nil
}

// Canonical returns the canonical spelling of a possibly-composed,
// possibly-aliased name:
// the Name() the built scheme reports. This is the identity the fleet
// fingerprints hash.
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
// scheme catalogue: the six paper schemes, their table-label aliases
// and the remap decorator.
func Default() *Registry {
	defaultOnce.Do(func() {
		defaultReg = New()
		must := func(err error) {
			if err != nil {
				panic(err)
			}
		}
		for _, e := range []Entry{
			{Name: "conventional", Factory: schemes.NewConventional}, // serial worst-case writes, no read
			{Name: "dcw", Factory: schemes.NewDCW},                   // data-comparison write (paper baseline)
			{Name: "fnw", Factory: schemes.NewFlipNWrite},            // Flip-N-Write inversion coding
			{Name: "twostage", Factory: schemes.NewTwoStage},         // RESET stage, then packed SET stage
			{Name: "threestage", Factory: schemes.NewThreeStage},     // FNW read+flip over 2-Stage
			{Name: "tetris", Factory: tetris.New},                    // Tetris Write pulse packing (the paper's scheme)
		} {
			must(defaultReg.Register(e))
		}
		must(defaultReg.RegisterAlias("baseline", "dcw"))
		must(defaultReg.RegisterAlias("flip-n-write", "fnw"))
		must(defaultReg.RegisterAlias("2stage", "twostage"))
		must(defaultReg.RegisterAlias("3stage", "threestage"))

		// DATACON-style content-aware wear remapping.
		must(defaultReg.RegisterDecorator(Decorator{
			Name: "remap",
			Wrap: func(e Entry) Entry {
				inner := e.Factory
				return Entry{
					Name: e.Name + "+remap",
					Factory: func(par pcm.Params) schemes.Scheme {
						return schemes.NewRemap(inner(par), par)
					},
				}
			},
		}))
	})
	return defaultReg
}
