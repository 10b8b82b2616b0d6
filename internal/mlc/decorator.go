package mlc

import (
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/units"
)

// cellMode is a registry-resolvable decorator stub that bills an inner
// SLC write scheme for MLC-grade programming: every SET pulse in the
// inner plan is treated as targeting an intermediate resistance level
// and extends the write phase by that cell's deterministic
// program-and-verify staircase (partial pulses plus verify reads). The
// pulse train itself — and therefore the stored image, power profile and
// shadow-array decode — is unchanged; only the latency bill and the P&V
// counters move. This is the scaffolding for ROADMAP item 4 (a full MLC
// write path): the per-cell iteration model and the scheme-pipeline
// plumbing land here, the multi-level datapath comes later.
type cellMode struct {
	inner schemes.Scheme
	rec   schemes.PlanRecycler
	tags  schemes.FlipTagger
	par   Params
	dev   pcm.Params
	name  string

	stats struct {
		pvPulses  int64          // partial SET pulses billed
		pvTime    units.Duration // cumulative staircase time billed
		pvWrites  int64          // writes that had at least one SET
		allWrites int64
	}
}

// NewCellMode wraps inner with the MLC cell-mode latency model. par
// must validate; the zero value is not usable — pass DefaultParams()
// for the standard staircase.
func NewCellMode(inner schemes.Scheme, dev pcm.Params, par Params) (schemes.Scheme, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	s := &cellMode{inner: inner, par: par, dev: dev, name: inner.Name() + "+mlc"}
	s.rec, _ = inner.(schemes.PlanRecycler)
	s.tags, _ = inner.(schemes.FlipTagger)
	return s, nil
}

func (s *cellMode) Name() string               { return s.name }
func (s *cellMode) NeedsReadBeforeWrite() bool { return s.inner.NeedsReadBeforeWrite() }

// FlipTags forwards the inner scheme's coding state.
func (s *cellMode) FlipTags(addr pcm.LineAddr) uint64 {
	if s.tags == nil {
		return 0
	}
	return s.tags.FlipTags(addr)
}

// RestoreFlipTags forwards crash-recovery tag restoration to the inner
// scheme's coding state.
func (s *cellMode) RestoreFlipTags(addr pcm.LineAddr, tags uint64) {
	if s.tags != nil {
		s.tags.RestoreFlipTags(addr, tags)
	}
}

// RecyclePlan implements schemes.PlanRecycler via the inner arena.
func (s *cellMode) RecyclePlan(p schemes.Plan) {
	if s.rec != nil {
		s.rec.RecyclePlan(p)
	}
}

// ObserveQueues forwards controller load to the inner scheme.
func (s *cellMode) ObserveQueues(reads, writes int) {
	if o, ok := s.inner.(schemes.QueueObserver); ok {
		o.ObserveQueues(reads, writes)
	}
}

// SchemeStats implements schemes.StatProvider.
func (s *cellMode) SchemeStats(emit func(name string, value float64)) {
	emit("scheme.mlc.pv_pulses", float64(s.stats.pvPulses))
	emit("scheme.mlc.pv_time", float64(s.stats.pvTime))
	emit("scheme.mlc.pv_writes", float64(s.stats.pvWrites))
	if sp, ok := s.inner.(schemes.StatProvider); ok {
		sp.SchemeStats(emit)
	}
}

func (s *cellMode) PlanWrite(addr pcm.LineAddr, old, new []byte) schemes.Plan {
	p := s.inner.PlanWrite(addr, old, new)
	s.stats.allWrites++

	// The staircases of simultaneously pulsed cells overlap, so the
	// write phase stretches by the slowest cell's staircase; every
	// partial pulse is billed for energy accounting.
	maxIter := 0
	for _, pl := range p.Pulses {
		if pl.Kind != schemes.Set {
			continue
		}
		cell := int64(addr)*int64(s.dev.DataUnits()*s.dev.NumChips) +
			int64(pl.Unit*s.dev.NumChips+pl.Chip)
		n := s.par.Iterations(cell, 1)
		s.stats.pvPulses += int64(n) * int64(pl.Bits())
		if n > maxIter {
			maxIter = n
		}
	}
	if maxIter > 0 {
		extra := units.Duration(maxIter) * (s.par.TPartial + s.par.TVerify)
		p.Write += extra
		s.stats.pvTime += extra
		s.stats.pvWrites++
	}
	return p
}
