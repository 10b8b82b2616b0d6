package schemes

import (
	"tetriswrite/internal/bitutil"
	"tetriswrite/internal/pcm"
)

// flipMin is a WIRE-style flip-minimizing encoder decorator: before the
// inner scheme plans its pulses, every (chip, data unit) slice is
// re-encoded under a per-unit inversion tag chosen to minimize the number
// of cells that change — the stored word is complemented whenever that
// transitions fewer cells than writing it straight (counting the tag cell
// itself). The inner scheme then plans in the *encoded* domain: it sees
// the currently stored bits as old and the chosen encoding as new, so a
// comparison-based inner scheme (DCW) pulses only the minimized cell set.
// Tag-cell pulses are appended by the decorator in the first write slot;
// like Flip-N-Write's flip cells they cost energy but sit outside the
// data power budget (Pulse.DataBits).
//
// Unlike Flip-N-Write, the inversion decision here is a pure greedy
// Hamming minimization with no worst-case guarantee, so it composes with
// any inner scheme whose slot layout covers the full chip width. The
// inner scheme must not drive flip cells itself (the registry rejects
// such compositions): one tag per (chip, unit) admits exactly one writer,
// and the decode rule — logical = stored XOR tag — must stay single-XOR
// for the shadow-array oracle to hold.
type flipMin struct {
	inner Scheme
	rec   PlanRecycler // inner's recycler, when it has one
	par   pcm.Params
	name  string
	// The decorator owns the line's tags (its inner scheme is tagless
	// by registry contract), so FlipTagger stops here.
	FlipTagStore

	// Preallocated per-write scratch: the encoded old/new images handed
	// to the inner scheme and the tag transitions of the current write.
	encOld, encNew []byte
	changes        []tagChange

	stats struct {
		inversions int64 // tag toggles chosen by the minimizer
		tagSets    int64 // tag-cell SET pulses emitted
		tagResets  int64 // tag-cell RESET pulses emitted
	}
}

type tagChange struct {
	c, u int
	set  bool
}

// NewFlipMin wraps inner with the flip-minimizing encoder. The inner
// scheme must not pulse flip cells itself; compose via the registry to
// have that checked.
func NewFlipMin(inner Scheme, par pcm.Params) Scheme {
	s := &flipMin{
		inner:        inner,
		par:          par,
		name:         inner.Name() + "+flipmin",
		FlipTagStore: NewFlipTagStore(),
		encOld:       make([]byte, par.LineBytes),
		encNew:       make([]byte, par.LineBytes),
	}
	s.changes = make([]tagChange, 0, par.DataUnits()*par.NumChips)
	s.rec, _ = inner.(PlanRecycler)
	return s
}

func (s *flipMin) Name() string               { return s.name }
func (s *flipMin) NeedsReadBeforeWrite() bool { return true }

// RecyclePlan implements PlanRecycler by routing the buffer back to the
// inner scheme's arena, where it was taken from.
func (s *flipMin) RecyclePlan(p Plan) {
	if s.rec != nil {
		s.rec.RecyclePlan(p)
	}
}

// ObserveQueues forwards controller load to the inner scheme.
func (s *flipMin) ObserveQueues(reads, writes int) {
	if o, ok := s.inner.(QueueObserver); ok {
		o.ObserveQueues(reads, writes)
	}
}

// SchemeStats implements StatProvider.
func (s *flipMin) SchemeStats(emit func(name string, value float64)) {
	emit("scheme.flipmin.inversions", float64(s.stats.inversions))
	emit("scheme.flipmin.tag_sets", float64(s.stats.tagSets))
	emit("scheme.flipmin.tag_resets", float64(s.stats.tagResets))
	if sp, ok := s.inner.(StatProvider); ok {
		sp.SchemeStats(emit)
	}
}

func (s *flipMin) PlanWrite(addr pcm.LineAddr, old, new []byte) Plan {
	nu := s.par.DataUnits()
	nc := s.par.NumChips
	wbits := s.par.ChipWidthBits
	wb := wbits / 8
	mask := bitutil.WidthMask(wbits)
	s.changes = s.changes[:0]
	// One read of the line's tag word, coded against a local copy; it is
	// stored back only when a tag toggles, so a line the minimizer never
	// inverted keeps no entry.
	tags := s.FlipTags(addr)
	for u := 0; u < nu; u++ {
		for c := 0; c < nc; c++ {
			bit := uint64(1) << uint(u*nc+c)
			lo := bitutil.ChipSlice(old, nc, wb, c, u)
			ln := bitutil.ChipSlice(new, nc, wb, c, u)
			oldTag := tags&bit != 0
			storedOld := lo & mask
			encKeep := ln & mask
			if oldTag {
				storedOld = ^lo & mask
				encKeep = ^ln & mask
			}
			encTog := ^encKeep & mask
			keepCost := bitutil.Hamming16(storedOld, encKeep)
			togCost := bitutil.Hamming16(storedOld, encTog) + 1 // the tag cell flips too
			enc := encKeep
			if togCost < keepCost {
				enc = encTog
				tags ^= bit
				s.changes = append(s.changes, tagChange{c: c, u: u, set: !oldTag})
				s.stats.inversions++
			}
			bitutil.SetChipSlice(s.encOld, nc, wb, c, u, storedOld)
			bitutil.SetChipSlice(s.encNew, nc, wb, c, u, enc)
		}
	}
	if len(s.changes) > 0 {
		*s.TagSlot(addr) = tags
	}
	p := s.inner.PlanWrite(addr, s.encOld, s.encNew)
	// The minimizer compares against the stored image, so the composed
	// scheme always reads before writing even over a no-read inner.
	if p.Read < s.par.TRead {
		p.Read = s.par.TRead
	}
	for _, ch := range s.changes {
		kind := Reset
		if ch.set {
			kind = Set
			s.stats.tagSets++
			p.Sets++
		} else {
			s.stats.tagResets++
			p.Resets++
		}
		if d := p.dur(kind); p.Write < d {
			p.Write = d
		}
		p.push(ch.c, ch.u, kind, 0, 0, true)
	}
	return p
}
