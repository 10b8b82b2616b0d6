package schemes

import (
	"tetriswrite/internal/linestore"
	"tetriswrite/internal/pcm"
)

// FlipTagStore holds the per-line inversion tags of a coding scheme:
// one bit per (chip, data unit), bit u*NumChips+c of one uint64 word per
// touched line (32 bits with the default geometry). It is the only
// store of flip tags: every tag-coded scheme embeds it and so
// implements FlipTagger.
type FlipTagStore struct {
	m *linestore.Store
}

// NewFlipTagStore returns an empty store.
func NewFlipTagStore() FlipTagStore {
	return FlipTagStore{m: linestore.NewStore(1)}
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
