package fault

import (
	"fmt"
	"sort"

	"tetriswrite/internal/cpu"
	"tetriswrite/internal/linestore"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/units"
)

// SpareRemapper gives the platform graceful degradation under hard
// errors: a reserved region of known-good spare lines plus a remap table
// (ECP-lite, at line rather than cell granularity). When the
// controller's write-verify loop exhausts its retry budget on a line,
// the remapper allocates a spare slot, records the redirect, and
// re-issues the failed write's data to the spare — transparently to
// everything above it. Subsequent reads and writes to the dead line are
// translated to its spare; a spare that itself dies chains to a fresh
// one.
//
// The remapper composes with Start-Gap wear leveling: it sits *below*
// the wearlevel.Remapper (Start-Gap translates logical to physical,
// sparing redirects dead physical lines), so the gap rotation never
// needs to know which lines died.
type SpareRemapper struct {
	mem   cpu.MemPort
	snoop func(addr pcm.LineAddr, dst []byte)

	spareBase pcm.LineAddr // first spare slot
	spareN    int          // total spare slots
	nextSpare int          // slots handed out so far

	remap map[pcm.LineAddr]pcm.LineAddr // dead physical line -> spare slot

	// pending holds repair writes the controller had no queue space for,
	// drained via WhenWriteSpace exactly like wearlevel.Remapper does for
	// gap-move copies. Reads to a slot with a pending repair are served
	// from the pending data. Draining stays in ascending address order
	// (see drainPending), unchanged from the original map + sort.
	pending  *linestore.Pending
	retrying bool

	stats SpareStats
}

// SpareStats counts sparing activity.
type SpareStats struct {
	RemappedLines int64 // hard-error lines redirected to a spare
	RepairWrites  int64 // repair writes issued to spare slots
	Exhausted     int64 // hard errors dropped because no spare was left
	SparesLeft    int   // spare slots still available
}

// NewSpareRemapper reserves n spare lines starting at base in front of
// mem. snoop must return the freshest physical contents of a line (use
// Controller.Snoop); it backs reads that race a pending repair.
func NewSpareRemapper(mem cpu.MemPort, base pcm.LineAddr, n int, snoop func(pcm.LineAddr, []byte)) (*SpareRemapper, error) {
	if n < 0 {
		return nil, fmt.Errorf("fault: %d spare lines", n)
	}
	if base < 0 {
		return nil, fmt.Errorf("fault: spare base %d", base)
	}
	return &SpareRemapper{
		mem:       mem,
		snoop:     snoop,
		spareBase: base,
		spareN:    n,
		remap:     make(map[pcm.LineAddr]pcm.LineAddr),
		pending:   linestore.NewPending(),
	}, nil
}

// Stats returns the sparing counters.
func (s *SpareRemapper) Stats() SpareStats {
	st := s.stats
	st.SparesLeft = s.spareN - s.nextSpare
	return st
}

// Translate follows the remap chain from a physical line to the slot
// that actually stores it (itself, if the line never failed).
func (s *SpareRemapper) Translate(addr pcm.LineAddr) pcm.LineAddr {
	for {
		next, ok := s.remap[addr]
		if !ok {
			return addr
		}
		addr = next
	}
}

// SubmitRead translates and forwards a read. A slot with a pending
// (not-yet-accepted) repair write serves the repair data, mirroring the
// controller's own store-forwarding.
func (s *SpareRemapper) SubmitRead(addr pcm.LineAddr, onDone func(at units.Time, data []byte)) bool {
	phys := s.Translate(addr)
	if data, ok := s.pending.Get(int64(phys)); ok {
		return s.mem.SubmitRead(phys, func(at units.Time, _ []byte) {
			onDone(at, append([]byte(nil), data...))
		})
	}
	return s.mem.SubmitRead(phys, onDone)
}

// SubmitWrite translates and forwards a write. An accepted write
// supersedes any pending repair to the same slot (the repair data is
// stale the moment newer data lands behind it in the queue).
func (s *SpareRemapper) SubmitWrite(addr pcm.LineAddr, data []byte, onDone func(at units.Time)) bool {
	phys := s.Translate(addr)
	if !s.mem.SubmitWrite(phys, data, onDone) {
		return false
	}
	s.pending.Delete(int64(phys))
	return true
}

// WhenWriteSpace forwards to the controller.
func (s *SpareRemapper) WhenWriteSpace(fn func()) { s.mem.WhenWriteSpace(fn) }

// Snoop returns the freshest contents of a line as seen through the
// remap table, for layers above (Start-Gap gap moves).
func (s *SpareRemapper) Snoop(addr pcm.LineAddr, dst []byte) {
	phys := s.Translate(addr)
	if data, ok := s.pending.Get(int64(phys)); ok {
		copy(dst, data)
		return
	}
	if s.snoop != nil {
		s.snoop(phys, dst)
	}
}

// OnHardError is the controller's escalation callback: addr is the
// physical line whose write could not be verified within the retry
// budget, want the data that should have landed. The line is redirected
// to a fresh spare slot and the data re-issued there. With no spares
// left the error is counted and the line left in place (degraded but
// running — reads return the stuck image).
func (s *SpareRemapper) OnHardError(addr pcm.LineAddr, want []byte) {
	if _, ok := s.remap[addr]; ok {
		// The failed write already raced a remap of the same line (e.g.
		// a queued older write drained after the redirect was installed);
		// re-issue to the current slot rather than burning another spare.
		s.repair(s.Translate(addr), want)
		return
	}
	if s.nextSpare >= s.spareN {
		s.stats.Exhausted++
		return
	}
	spare := s.spareBase + pcm.LineAddr(s.nextSpare)
	s.nextSpare++
	s.remap[addr] = spare
	s.stats.RemappedLines++
	s.repair(spare, want)
}

// repair queues the failed write's data at its new slot.
func (s *SpareRemapper) repair(slot pcm.LineAddr, want []byte) {
	s.stats.RepairWrites++
	s.pending.Put(int64(slot), append([]byte(nil), want...))
	s.drainPending()
}

// drainPending pushes buffered repair writes into the controller, in
// address order: map iteration order must not leak into the simulation's
// event order, or the same-seed determinism guarantee breaks.
func (s *SpareRemapper) drainPending() {
	addrs := make([]linestore.Addr, 0, s.pending.Len())
	s.pending.Range(func(addr linestore.Addr, _ []byte) bool {
		addrs = append(addrs, addr)
		return true
	})
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, addr := range addrs {
		data, _ := s.pending.Get(addr)
		if !s.mem.SubmitWrite(pcm.LineAddr(addr), data, nil) {
			if !s.retrying {
				s.retrying = true
				s.mem.WhenWriteSpace(func() {
					s.retrying = false
					s.drainPending()
				})
			}
			return
		}
		s.pending.Delete(addr)
	}
}

// Remapped reports whether a line has been redirected to a spare.
func (s *SpareRemapper) Remapped(addr pcm.LineAddr) bool {
	_, ok := s.remap[addr]
	return ok
}
