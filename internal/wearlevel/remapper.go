package wearlevel

import (
	"tetriswrite/internal/cpu"
	"tetriswrite/internal/linestore"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/units"
)

// Remapper interposes Start-Gap wear leveling between the cores (or
// caches) and the memory controller: logical line addresses are
// translated to rotating physical slots, and every psi-th write triggers
// a gap move whose line copy is injected as real write traffic.
//
// Consistency: after a gap move the source slot becomes the new gap (no
// logical line maps to it), so its data cannot change while the copy is
// in flight; reads to the destination slot are served from the pending
// copy until the controller accepts it, mirroring the controller's own
// store-forwarding.
type Remapper struct {
	mem    cpu.MemPort
	region *Region
	// snoop reads a physical line's freshest contents without timing
	// side effects, including data still queued in the controller —
	// wired to Controller.Snoop. A plain device peek would lose queued
	// writes when the gap passes a line with a pending update.
	snoop func(addr pcm.LineAddr, dst []byte)
	line  int

	// pending holds gap-move copies awaiting submission, drained in
	// insertion order — a Go map here would retry queued copies in
	// randomized order and break replay determinism.
	pending  *linestore.Pending
	retrying bool

	stats RemapStats
}

// RemapStats counts wear-leveling activity.
type RemapStats struct {
	Reads     int64
	Writes    int64
	GapMoves  int64
	CopyBytes int64
}

// NewRemapper wires a region in front of mem. lineBytes is the device
// line size; snoop must return the freshest physical contents (use
// Controller.Snoop).
func NewRemapper(mem cpu.MemPort, region *Region, lineBytes int, snoop func(pcm.LineAddr, []byte)) *Remapper {
	return &Remapper{
		mem:     mem,
		region:  region,
		snoop:   snoop,
		line:    lineBytes,
		pending: linestore.NewPending(),
	}
}

// Stats returns the wear-leveling counters.
func (r *Remapper) Stats() RemapStats { return r.stats }

// SubmitRead translates and forwards a read.
func (r *Remapper) SubmitRead(addr pcm.LineAddr, onDone func(at units.Time, data []byte)) bool {
	r.stats.Reads++
	phys := r.region.Translate(addr)
	if data, ok := r.pending.Get(int64(phys)); ok {
		// The line is mid-copy: serve the pending data the way the
		// controller forwards from its write queue.
		return r.mem.SubmitRead(phys, func(at units.Time, _ []byte) {
			onDone(at, append([]byte(nil), data...))
		})
	}
	return r.mem.SubmitRead(phys, onDone)
}

// SubmitWrite translates and forwards a write, possibly triggering a gap
// move.
func (r *Remapper) SubmitWrite(addr pcm.LineAddr, data []byte, onDone func(at units.Time)) bool {
	phys := r.region.Translate(addr)
	if !r.mem.SubmitWrite(phys, data, onDone) {
		return false
	}
	// An accepted direct write to a slot with an unsubmitted gap-move
	// copy fully supersedes the copy; dropping the copy keeps queue
	// ordering correct (the stale copy must never land after this
	// write).
	r.pending.Delete(int64(phys))
	r.stats.Writes++
	if !r.region.Contains(addr) {
		return true
	}
	if from, to, ok := r.region.OnWrite(); ok {
		r.stats.GapMoves++
		buf := make([]byte, r.line)
		// Snapshot the moved line as the controller sees it (including
		// queued writes): the source slot is the new gap, so nothing can
		// write it afterwards and the snapshot cannot go stale.
		r.snoop(from, buf)
		r.pending.Put(int64(to), buf)
		r.drainPending()
	}
	return true
}

// drainPending pushes buffered gap-move copies into the controller in
// the order the moves happened.
func (r *Remapper) drainPending() {
	r.pending.Range(func(addr linestore.Addr, data []byte) bool {
		if !r.mem.SubmitWrite(pcm.LineAddr(addr), data, nil) {
			if !r.retrying {
				r.retrying = true
				r.mem.WhenWriteSpace(func() {
					r.retrying = false
					r.drainPending()
				})
			}
			return false
		}
		r.stats.CopyBytes += int64(len(data))
		r.pending.Delete(addr)
		return true
	})
}

// WhenWriteSpace forwards to the controller.
func (r *Remapper) WhenWriteSpace(fn func()) { r.mem.WhenWriteSpace(fn) }
