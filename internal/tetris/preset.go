package tetris

import (
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
)

// PlanPreset implements schemes.Presetter: it SETs every currently-RESET
// cell of the line (and clears any inversion tags), leaving the stored
// logical value all-ones. A later write to the line then needs only
// RESET pulses, which Tetris Write packs into a handful of
// sub-write-units — the PreSET effect.
//
// The preset reads first (so only amorphous cells are pulsed), pays no
// analysis overhead (there is nothing to schedule around: only SETs
// exist, and the packer's write-1 pass is the whole analysis), and packs
// the SETs under the same power budget as a normal write.
func (s *scheme) PlanPreset(addr pcm.LineAddr, old []byte) schemes.Plan {
	// Presets share the write path's scratch and pulse arena, so they
	// allocate nothing in steady state either.
	s.prepare()
	tags := s.TagSlot(addr)
	*tags = s.masks.preset(old, *tags)
	var p schemes.Plan
	s.plan(&p, true)
	return p
}
