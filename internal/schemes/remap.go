package schemes

import (
	"math"

	"tetriswrite/internal/bitutil"
	"tetriswrite/internal/linestore"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/units"
)

// remapper is a DATACON-style content-aware remapping decorator (cf.
// arXiv 2005.04753): it tracks the flip density of every written line —
// an EWMA of the fraction of bits each write changes — and, when a line
// runs persistently hotter than the global average, swaps its physical
// frame with the least-worn frame of the active working set. The swap is
// charged as migration latency (two line reads plus two full rewrites)
// on the triggering write's analysis phase, and the per-frame wear
// ledger follows the pulses thereafter.
//
// The remapping is wear-accounting only: the inner scheme keeps planning
// under the logical address, so its per-line coding state, the device's
// stored image and the invariant guard's shadow array all stay keyed the
// same way. What moves is the identity of the physical frame that ages —
// exactly the quantity the wear ledger and the migration cost model
// need. This keeps the composition correct under any inner scheme while
// still simulating DATACON's steering decisions and their latency bill.
type remapper struct {
	inner Scheme
	rec   PlanRecycler
	tags  FlipTagger
	par   pcm.Params
	name  string

	// fwd maps logical line -> [phys frame+1, density EWMA bits, writes
	// since last migration]; rev maps phys frame -> logical line+1; wear
	// maps phys frame -> pulsed cells. Unmapped lines are identity-mapped.
	fwd  *linestore.Store
	rev  *linestore.Store
	wear *linestore.Store

	globalEWMA float64
	coldPhys   int64 // least-worn touched frame seen so far; -1 = none
	coldWear   uint64
	migCost    units.Duration

	stats struct {
		migrations int64
		migTime    units.Duration
		hotWrites  int64 // writes that found their line above the hot threshold
	}
}

// Remap tuning: a line is hot when its density EWMA exceeds hotFactor
// times the global EWMA, it has accumulated minWrites writes since its
// last migration, and its frame is strictly more worn than the coldest
// known frame. Alpha is the EWMA smoothing factor.
const (
	remapHotFactor = 2.0
	remapMinWrites = 8
	remapAlpha     = 0.125
)

// NewRemap wraps inner with the content-aware remapper.
func NewRemap(inner Scheme, par pcm.Params) Scheme {
	lay := newStaticLayout(par.ChipWidthBits, par.CurrentReset, par.ChipBudget)
	s := &remapper{
		inner:    inner,
		par:      par,
		name:     inner.Name() + "+remap",
		fwd:      linestore.NewStore(3),
		rev:      linestore.NewStore(1),
		wear:     linestore.NewStore(1),
		coldPhys: -1,
		// Migrating swaps two frames: read both lines, rewrite both at
		// the conventional worst-case span.
		migCost: 2 * (par.TRead + units.Duration(lay.slots(par.DataUnits()))*par.TSet),
	}
	s.rec, _ = inner.(PlanRecycler)
	s.tags, _ = inner.(FlipTagger)
	return s
}

func (s *remapper) Name() string               { return s.name }
func (s *remapper) NeedsReadBeforeWrite() bool { return s.inner.NeedsReadBeforeWrite() }

// FlipTags forwards the inner scheme's coding state: remapping is
// wear-accounting only, so the inner scheme's tags stay keyed by the
// logical address.
func (s *remapper) FlipTags(addr pcm.LineAddr) uint64 {
	if s.tags == nil {
		return 0
	}
	return s.tags.FlipTags(addr)
}

// RestoreFlipTags forwards to the inner scheme's coding state.
func (s *remapper) RestoreFlipTags(addr pcm.LineAddr, tags uint64) {
	if s.tags != nil {
		s.tags.RestoreFlipTags(addr, tags)
	}
}

// RecyclePlan implements PlanRecycler by routing to the inner arena.
func (s *remapper) RecyclePlan(p Plan) {
	if s.rec != nil {
		s.rec.RecyclePlan(p)
	}
}

// SchemeStats implements StatProvider.
func (s *remapper) SchemeStats(emit func(name string, value float64)) {
	emit("scheme.remap.migrations", float64(s.stats.migrations))
	emit("scheme.remap.migration_time", float64(s.stats.migTime))
	emit("scheme.remap.hot_writes", float64(s.stats.hotWrites))
	emit("scheme.remap.tracked_lines", float64(s.fwd.Len()))
}

// phys returns the line's current frame, establishing the identity
// mapping on first touch.
func (s *remapper) entry(addr pcm.LineAddr) []uint64 {
	w := s.fwd.Ensure(int64(addr))
	if w[0] == 0 {
		w[0] = uint64(addr) + 1
		s.rev.Ensure(int64(addr))[0] = uint64(addr) + 1
	}
	return w
}

func (s *remapper) PlanWrite(addr pcm.LineAddr, old, new []byte) Plan {
	p := s.inner.PlanWrite(addr, old, new)

	w := s.entry(addr)
	phys := int64(w[0] - 1)

	// Flip density of this write and the line/global EWMAs.
	d := float64(bitutil.HammingBytes(old, new)) / float64(s.par.LineBytes*8)
	lineEWMA := math.Float64frombits(w[1])
	if w[2] == 0 && w[1] == 0 {
		lineEWMA = d
	} else {
		lineEWMA = (1-remapAlpha)*lineEWMA + remapAlpha*d
	}
	w[1] = math.Float64bits(lineEWMA)
	w[2]++
	if s.globalEWMA == 0 {
		s.globalEWMA = d
	} else {
		s.globalEWMA = (1-remapAlpha)*s.globalEWMA + remapAlpha*d
	}

	// Wear follows the pulses onto the line's current frame.
	ww := s.wear.Ensure(phys)
	ww[0] += uint64(p.Sets + p.Resets)
	curWear := ww[0]

	hot := lineEWMA > remapHotFactor*s.globalEWMA && s.globalEWMA > 0
	if hot {
		s.stats.hotWrites++
	}
	if hot && w[2] >= remapMinWrites &&
		s.coldPhys >= 0 && s.coldPhys != phys && curWear > s.coldWear {
		s.migrate(addr, w, phys)
		p.Analysis += s.migCost
	} else if s.coldPhys < 0 || curWear < s.coldWear {
		s.coldPhys, s.coldWear = phys, curWear
	} else if phys == s.coldPhys {
		s.coldWear = curWear
	}
	return p
}

// migrate swaps the hot line's frame with the coldest known frame,
// updating both directions of the mapping and resetting the hot line's
// write streak. The coldest-frame election restarts afterwards — the
// frame just inherited the hot line.
func (s *remapper) migrate(addr pcm.LineAddr, w []uint64, phys int64) {
	cold := s.coldPhys
	partnerW := s.rev.Ensure(cold)
	partner := cold // identity when the frame was never mapped
	if partnerW[0] != 0 {
		partner = int64(partnerW[0] - 1)
	}
	// rev.Ensure may rehash; re-fetch the hot line's rev entry after.
	w[0] = uint64(cold) + 1
	w[2] = 0
	s.rev.Ensure(cold)[0] = uint64(addr) + 1
	if partner != int64(addr) {
		pw := s.fwd.Ensure(partner)
		pw[0] = uint64(phys) + 1
		s.rev.Ensure(phys)[0] = uint64(partner) + 1
	}
	s.coldPhys, s.coldWear = -1, 0
	s.stats.migrations++
	s.stats.migTime += s.migCost
}
