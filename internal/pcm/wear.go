package pcm

// WearTracker records per-line bit-write counts, the quantity PCM
// endurance is measured in. The paper's Table I claims Tetris Write, like
// Flip-N-Write and Three-Stage-Write, reduces energy *and* wear because it
// inherits read-before-write + inversion coding; the tracker lets the
// test suite and the ablation benches quantify that.
//
// Tracking is sparse and optional: attach one to the write path only when
// an experiment asks for endurance numbers.
//
// A tracker belongs to one simulation, whose engine goroutine records
// into it, so it takes no locks: read it from that goroutine or after
// the run has returned.
type WearTracker struct {
	wear  map[LineAddr]int64
	total int64
}

// NewWearTracker returns an empty tracker.
func NewWearTracker() *WearTracker {
	return &WearTracker{wear: make(map[LineAddr]int64)}
}

// Record adds bit-writes to a line's wear count.
func (w *WearTracker) Record(addr LineAddr, bitWrites int) {
	if bitWrites == 0 {
		return
	}
	w.wear[addr] += int64(bitWrites)
	w.total += int64(bitWrites)
}

// WearSummary describes the wear distribution across touched lines.
type WearSummary struct {
	TotalBitWrites int64
	TouchedLines   int
	MaxLineWear    int64
	MeanLineWear   float64
}

// Summary computes the current wear distribution.
func (w *WearTracker) Summary() WearSummary {
	s := WearSummary{TotalBitWrites: w.total, TouchedLines: len(w.wear)}
	for _, v := range w.wear {
		if v > s.MaxLineWear {
			s.MaxLineWear = v
		}
	}
	if len(w.wear) > 0 {
		s.MeanLineWear = float64(w.total) / float64(len(w.wear))
	}
	return s
}

// LineWear returns the wear of one line.
func (w *WearTracker) LineWear(addr LineAddr) int64 {
	return w.wear[addr]
}
