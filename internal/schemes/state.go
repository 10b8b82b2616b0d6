package schemes

import (
	"tetriswrite/internal/bitutil"
	"tetriswrite/internal/linestore"
	"tetriswrite/internal/pcm"
)

// FlipTagStore holds the per-line inversion tags of a coding scheme:
// one bit per (chip, data unit), bit u*NumChips+c of one uint64 word per
// touched line (32 bits with the default geometry). It is the only
// store of flip tags: every tag-coded scheme embeds it and so
// implements FlipTagger.
type FlipTagStore struct {
	m      *linestore.Store
	nchips int
}

// NewFlipTagStore returns an empty store for lines of nchips chips.
func NewFlipTagStore(nchips int) FlipTagStore {
	return FlipTagStore{m: linestore.NewStore(1), nchips: nchips}
}

// FlipTags implements FlipTagger: the line's tag word, zero when the
// line was never written.
func (f *FlipTagStore) FlipTags(addr pcm.LineAddr) uint64 {
	if w := f.m.Get(int64(addr)); w != nil {
		return w[0]
	}
	return 0
}

// RestoreFlipTags implements FlipTagger: the line's whole tag word is
// overwritten.
func (f *FlipTagStore) RestoreFlipTags(addr pcm.LineAddr, tags uint64) {
	*f.TagSlot(addr) = tags
}

// TagSlot returns the line's tag word in place (inserting a zero word
// for a line never written): a planner fetches it once, codes every
// unit against a local copy and stores the result back once.
func (f *FlipTagStore) TagSlot(addr pcm.LineAddr) *uint64 {
	return &f.m.Ensure(int64(addr))[0]
}

func (f *FlipTagStore) bit(c, u int) uint {
	return uint(u*f.nchips + c)
}

// tag returns the flip tag of chip c, unit u of the line.
func (f *FlipTagStore) tag(addr pcm.LineAddr, c, u int) bool {
	return f.FlipTags(addr)&(1<<f.bit(c, u)) != 0
}

// setTag updates the flip tag of chip c, unit u of the line.
func (f *FlipTagStore) setTag(addr pcm.LineAddr, c, u int, v bool) {
	w := f.TagSlot(addr)
	if v {
		*w |= 1 << f.bit(c, u)
	} else {
		*w &^= 1 << f.bit(c, u)
	}
}

// encoded returns the stored (array) bits for a chip slice given its
// logical value: the complement (within the chip width) when the flip
// tag is set.
func (f *FlipTagStore) encoded(addr pcm.LineAddr, c, u, widthBits int, logical uint16) uint16 {
	if f.tag(addr, c, u) {
		return ^logical & bitutil.WidthMask(widthBits)
	}
	return logical
}

// splitMaskByBits partitions mask into chunks of at most maxBits set bits
// each, preserving bit order. maxBits must be positive.
func splitMaskByBits(mask uint16, maxBits int) []uint16 {
	if maxBits <= 0 {
		panic("schemes: splitMaskByBits with non-positive capacity")
	}
	var out []uint16
	for mask != 0 {
		var chunk uint16
		n := 0
		for b := 0; b < 16 && n < maxBits; b++ {
			if mask&(1<<b) != 0 {
				chunk |= 1 << b
				mask &^= 1 << b
				n++
			}
		}
		out = append(out, chunk)
	}
	return out
}
