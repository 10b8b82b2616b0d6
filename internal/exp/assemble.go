package exp

import (
	"fmt"

	"tetriswrite/internal/registry"
	"tetriswrite/internal/system"
	"tetriswrite/internal/workload"
)

// This file is the assembly half of the harness: RunFullSystemCtx fills
// its FullResults matrix cell by cell with these helpers, and a caller
// that obtained the per-cell results elsewhere — the fleet broker
// collecting shard summaries from remote workers — builds the same
// matrix the same way and renders the same tables, byte for byte.

// ResolveProfiles maps workload names to their profiles, preserving the
// given order; an empty list selects all profiles in Profiles() order.
func ResolveProfiles(names []string) ([]workload.Profile, error) {
	if len(names) == 0 {
		return workload.Profiles(), nil
	}
	out := make([]workload.Profile, 0, len(names))
	for _, n := range names {
		p, err := workload.ProfileByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// ResolveSchemes maps scheme names to their factories, preserving the
// given order; an empty list selects the full SchemeSet in paper order.
// Names matching a paper table label ("baseline", "2stage", ...) keep
// that label as display name, so the rendered tables stay byte-identical
// to the historical ones; everything else — canonical names, aliases and
// composed names like "dcw+flipmin" or "adaptive" — resolves through the
// scheme registry and is displayed under its canonical spelling. Unknown
// names fail with the sorted list of registered scheme and decorator
// names. Note the first resolved scheme is the normalization baseline of
// every figure table, exactly as in a direct sweep.
func ResolveSchemes(want []string) ([]NamedFactory, error) {
	set := SchemeSet()
	if len(want) == 0 {
		return set, nil
	}
	out := make([]NamedFactory, 0, len(want))
	for _, n := range want {
		found := false
		for _, nf := range set {
			if nf.Name == n {
				out = append(out, nf)
				found = true
				break
			}
		}
		if found {
			continue
		}
		e, err := registry.Default().Resolve(n)
		if err != nil {
			return nil, fmt.Errorf("exp: %w", err)
		}
		out = append(out, NamedFactory{Name: e.Name, Factory: e.Factory})
	}
	return out, nil
}

// NewFullResults allocates an empty sweep matrix over the given grid,
// ready to be filled cell by cell with SetCell. The zero cells render
// as zero rows, so a partially filled matrix produces well-formed
// partial tables — the same contract RunFullSystemCtx keeps under
// cancellation.
func NewFullResults(opt Options, profiles []workload.Profile, schemes []NamedFactory) *FullResults {
	opt.Normalize()
	fr := &FullResults{
		Options:  opt,
		Profiles: profiles,
		Schemes:  schemes,
	}
	fr.Results = make([][]system.Result, len(profiles))
	fr.Errs = make([][]error, len(profiles))
	for i := range fr.Results {
		fr.Results[i] = make([]system.Result, len(schemes))
		fr.Errs[i] = make([]error, len(schemes))
	}
	return fr
}

// SetCell stores one (workload, scheme) cell; err marks it failed. The
// labels are forced to the grid's names so tables stay well-formed even
// when res is a zero or partial Result.
func (fr *FullResults) SetCell(w, s int, res system.Result, err error) {
	res.Workload = fr.Profiles[w].Name
	res.Scheme = fr.Schemes[s].Name
	fr.Results[w][s] = res
	fr.Errs[w][s] = err
}

// CellIndex returns the matrix position of a (workload, scheme) pair,
// or ok=false when the pair is outside this grid.
func (fr *FullResults) CellIndex(workload, scheme string) (w, s int, ok bool) {
	w, s = -1, -1
	for i, p := range fr.Profiles {
		if p.Name == workload {
			w = i
			break
		}
	}
	for i, nf := range fr.Schemes {
		if nf.Name == scheme {
			s = i
			break
		}
	}
	return w, s, w >= 0 && s >= 0
}
