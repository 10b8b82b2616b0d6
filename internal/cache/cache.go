// Package cache implements the processor-side cache hierarchy of the
// paper's platform (Table II): 32 KB L1, 2 MB L2 and a 32 MB L3 DRAM
// cache, all set-associative, write-back and write-allocate with LRU
// replacement.
//
// The hierarchy sits between the cores and the PCM memory controller as
// a cpu.MemPort: read hits complete after the level's access latency;
// misses propagate downward and fill upward; dirty victims cascade into
// the next level and ultimately into the controller's write queue, which
// is exactly how cache-line writes reach PCM in the paper's system.
//
// The paper's headline experiments (Figures 10-14) drive the controller
// with memory-level traffic calibrated to Table III's RPKI/WPKI, because
// those counters are *memory-level* measurements; this package is the
// substrate for the full-hierarchy mode used by the hierarchy example
// and the integration tests, where the workload is interpreted as the
// CPU-level stream instead.
package cache

import (
	"fmt"
	"math"

	"tetriswrite/internal/cpu"
	"tetriswrite/internal/linestore"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/units"
)

// LevelConfig describes one cache level.
type LevelConfig struct {
	Name      string
	SizeBytes int
	LineBytes int
	Ways      int
	// Latency is the access latency of the level.
	Latency units.Duration
}

// Validate checks the configuration.
func (c LevelConfig) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0:
		return fmt.Errorf("cache %s: non-positive geometry", c.Name)
	case c.SizeBytes%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("cache %s: size %d not divisible into %d-way sets of %dB lines",
			c.Name, c.SizeBytes, c.Ways, c.LineBytes)
	case c.Latency < 0:
		return fmt.Errorf("cache %s: negative latency", c.Name)
	}
	return nil
}

// Stats counts one level's activity.
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	WriteBacks int64 // dirty evictions pushed to the next level
}

// HitRate returns hits / accesses.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// chunkLines is the number of line payloads in one slab chunk: 64 KiB
// of 64 B lines.
const chunkLines = 1024

// level is one set-associative array. The rank vectors are dense per
// set: tags (8 bytes) and slab line indices (4 bytes) for every
// (set, rank) slot, kept in LRU order by permuting them, so a hit is a
// single set-indexed probe over contiguous tags and a promotion never
// moves line payloads.
//
// The payloads live in a slab of fixed-size chunks, in the order the
// level claimed their lines. A set claims a new slab line only while it
// has a free way; a victim hands its slab line to the line replacing
// it. The slab therefore grows with the lines the level has held, one
// chunk at a time, not with its capacity: a 32 MB L3 that ever holds
// 37k lines costs 2.4 MB of payload. Chunks never move, so a
// payload slice stays valid while its line is resident. The dirty bits
// are indexed by slab line too.
//
// The rank vectors are allocated on the level's first insert, so a run
// that never reaches the level pays nothing for it. Until then every
// lookup misses.
type level struct {
	cfg   LevelConfig
	nsets int
	st    Stats

	tags []int64 // nsets*Ways, rank-ordered per set (rank 0 = MRU)
	line []int32 // nsets*Ways, rank -> slab line
	used []uint8 // per set: ranks occupied

	chunks [][]byte // slab: line i is in chunks[i/chunkLines]
	dirty  []bool   // per slab line
	held   int32    // slab lines claimed

	// victimBuf carries an evicted line's payload out of insert — the
	// new line overwrites the victim's slab line in place. One buffer
	// per level is enough: a write-back cascade touches each level once.
	victimBuf []byte
}

func newLevel(cfg LevelConfig) (*level, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Ways > 255 {
		return nil, fmt.Errorf("cache %s: more than 255 ways", cfg.Name)
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	if int64(nsets)*int64(cfg.Ways) > math.MaxInt32 {
		return nil, fmt.Errorf("cache %s: more than %d lines", cfg.Name, math.MaxInt32)
	}
	return &level{cfg: cfg, nsets: nsets}, nil
}

// allocate builds the level's rank vectors; insert calls it on first
// use. The slab starts empty.
func (l *level) allocate() {
	slots := l.nsets * l.cfg.Ways
	l.tags = make([]int64, slots)
	l.line = make([]int32, slots)
	l.used = make([]uint8, l.nsets)
	l.victimBuf = make([]byte, l.cfg.LineBytes)
}

// empty reports whether the level has never held a line (its arrays are
// not allocated yet).
func (l *level) empty() bool { return l.used == nil }

func (l *level) setOf(addr pcm.LineAddr) int   { return int(int64(addr) % int64(l.nsets)) }
func (l *level) tagOf(addr pcm.LineAddr) int64 { return int64(addr) / int64(l.nsets) }

// slotData returns the payload of slab line i.
func (l *level) slotData(i int32) []byte {
	off := int(i%chunkLines) * l.cfg.LineBytes
	return l.chunks[i/chunkLines][off : off+l.cfg.LineBytes : off+l.cfg.LineBytes]
}

// claim takes the next slab line, adding a chunk when the last is full.
func (l *level) claim() int32 {
	i := l.held
	if i%chunkLines == 0 {
		l.chunks = append(l.chunks, make([]byte, chunkLines*l.cfg.LineBytes))
		l.dirty = append(l.dirty, make([]bool, chunkLines)...)
	}
	l.held++
	return i
}

// lookup probes the line's set and returns its slab line, promoting it
// to MRU, or ok=false on miss. The tag scan runs over the set's
// contiguous rank-ordered tag window — one bounds check, no pointer
// chasing.
func (l *level) lookup(addr pcm.LineAddr) (i int32, ok bool) {
	if l.empty() {
		l.st.Misses++
		return 0, false
	}
	si := l.setOf(addr)
	tag := l.tagOf(addr)
	base := si * l.cfg.Ways
	n := int(l.used[si])
	tags := l.tags[base : base+n]
	for r := range tags {
		if tags[r] == tag {
			i = l.line[base+r]
			if r > 0 {
				copy(l.tags[base+1:base+r+1], l.tags[base:base+r])
				copy(l.line[base+1:base+r+1], l.line[base:base+r])
				l.tags[base] = tag
				l.line[base] = i
			}
			l.st.Hits++
			return i, true
		}
	}
	l.st.Misses++
	return 0, false
}

// insert allocates a line (MRU), copying data into its slab line. An
// evicted victim is reported with its payload moved to the level's
// victim buffer (valid until the next insert on this level).
func (l *level) insert(addr pcm.LineAddr, data []byte, dirty bool) (victimAddr pcm.LineAddr, victimData []byte, victimDirty, evicted bool) {
	if l.empty() {
		l.allocate()
	}
	si := l.setOf(addr)
	base := si * l.cfg.Ways
	n := int(l.used[si])
	var i int32
	if n < l.cfg.Ways {
		i = l.claim()
		l.used[si] = uint8(n + 1)
	} else {
		// Reuse the LRU victim's slab line, carrying its payload out first.
		i = l.line[base+n-1]
		victimAddr = pcm.LineAddr(l.tags[base+n-1]*int64(l.nsets) + int64(si))
		copy(l.victimBuf, l.slotData(i))
		victimData, victimDirty, evicted = l.victimBuf, l.dirty[i], true
		l.st.Evictions++
		n--
	}
	copy(l.tags[base+1:base+n+1], l.tags[base:base+n])
	copy(l.line[base+1:base+n+1], l.line[base:base+n])
	l.tags[base] = l.tagOf(addr)
	l.line[base] = i
	l.dirty[i] = dirty
	copy(l.slotData(i), data)
	return victimAddr, victimData, victimDirty, evicted
}

// Hierarchy is the three-level cache stack in front of the memory
// controller. It implements cpu.MemPort.
type Hierarchy struct {
	eng    *sim.Engine
	levels []*level
	mem    cpu.MemPort

	// wbBuf holds write-backs the controller rejected; wbMax bounds it,
	// beyond which the hierarchy back-pressures the cores.
	wbBuf    []wbEntry
	wbMax    int
	retrying bool
	retryFn  func() // h.retryWriteBacks, bound once
	waiters  []func()

	// readFree recycles read records (see readEvent); wbFree recycles
	// write-back line buffers (see newWriteBack).
	readFree []*readEvent
	wbFree   [][]byte
}

type wbEntry struct {
	addr pcm.LineAddr
	data []byte
}

// DefaultLevels returns the paper's Table II hierarchy for a 2 GHz core
// clock: L1 32 KB 8-way 2 cycles, L2 2 MB 8-way 20 cycles, L3 32 MB
// 16-way 50 cycles; 64 B lines throughout.
func DefaultLevels(cpuClock units.Clock) []LevelConfig {
	return []LevelConfig{
		{Name: "L1", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, Latency: cpuClock.Cycles(2)},
		{Name: "L2", SizeBytes: 2 << 20, LineBytes: 64, Ways: 8, Latency: cpuClock.Cycles(20)},
		{Name: "L3", SizeBytes: 32 << 20, LineBytes: 64, Ways: 16, Latency: cpuClock.Cycles(50)},
	}
}

// New builds a hierarchy over the memory side.
func New(eng *sim.Engine, mem cpu.MemPort, cfgs []LevelConfig) (*Hierarchy, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cache: no levels")
	}
	h := &Hierarchy{eng: eng, mem: mem, wbMax: 64}
	h.retryFn = h.retryWriteBacks
	for _, cfg := range cfgs {
		l, err := newLevel(cfg)
		if err != nil {
			return nil, err
		}
		h.levels = append(h.levels, l)
	}
	return h, nil
}

// LevelStats returns the per-level statistics, outermost first.
func (h *Hierarchy) LevelStats() []Stats {
	out := make([]Stats, len(h.levels))
	for i, l := range h.levels {
		out[i] = l.st
	}
	return out
}

// SubmitRead walks the hierarchy. Hits complete after the cumulative
// latency of the levels touched; misses go to memory and fill every
// level on the way back.
//
// The data slice handed to onDone is only valid for the duration of the
// callback — the hierarchy reuses the buffer for later reads — so
// callers that retain it must copy.
func (h *Hierarchy) SubmitRead(addr pcm.LineAddr, onDone func(at units.Time, data []byte)) bool {
	var lat units.Duration
	for i, l := range h.levels {
		lat += l.cfg.Latency
		if li, ok := l.lookup(addr); ok {
			// Fill the levels above (inclusive-ish: keeps upper levels
			// warm like the common inclusive hierarchy).
			ev := h.newReadEvent(onDone)
			copy(ev.data, l.slotData(li))
			for j := i - 1; j >= 0; j-- {
				h.fill(j, addr, ev.data, false)
			}
			ev.at = h.eng.Now().Add(lat)
			h.eng.At(ev.at, ev.fire)
			return true
		}
	}
	// Full miss: check the write-back buffer (it still owns the data),
	// then memory. A buffer hit re-adopts the line: it moves back into
	// the hierarchy (dirty) and leaves the buffer, so the freshest copy
	// has exactly one home.
	for i, wb := range h.wbBuf {
		if wb.addr == addr {
			ev := h.newReadEvent(onDone)
			copy(ev.data, wb.data)
			h.freeWriteBack(wb.data)
			h.wbBuf = append(h.wbBuf[:i], h.wbBuf[i+1:]...)
			ev.at = h.eng.Now().Add(lat)
			h.eng.At(ev.at, ev.fire)
			h.fillAll(addr, ev.data, true)
			h.drainWaiters()
			return true
		}
	}
	ev := h.newReadEvent(onDone)
	ev.addr, ev.lat = addr, lat
	if !h.mem.SubmitRead(addr, ev.memDone) {
		ev.recycle()
		return false
	}
	return true
}

// readEvent is one read in flight through the hierarchy: it owns a
// line buffer holding the data the read returns, and prebound closures
// for the memory completion (a miss) and the read's own completion.
// Records are recycled through the hierarchy's freelist, so a read
// costs no allocation in steady state.
type readEvent struct {
	h      *Hierarchy
	addr   pcm.LineAddr
	lat    units.Duration // a miss's cumulative lookup latency
	at     units.Time     // completion time
	data   []byte
	onDone func(at units.Time, data []byte)

	fire    func()
	memDone func(at units.Time, data []byte)
}

func (h *Hierarchy) newReadEvent(onDone func(at units.Time, data []byte)) *readEvent {
	var ev *readEvent
	if n := len(h.readFree); n > 0 {
		ev = h.readFree[n-1]
		h.readFree[n-1] = nil
		h.readFree = h.readFree[:n-1]
	} else {
		ev = &readEvent{h: h, data: make([]byte, h.levels[0].cfg.LineBytes)}
		ev.fire = ev.run
		ev.memDone = ev.filled
	}
	ev.onDone = onDone
	return ev
}

func (ev *readEvent) recycle() {
	ev.onDone = nil
	ev.h.readFree = append(ev.h.readFree, ev)
}

// filled is a miss's memory completion. The controller's buffer is only
// valid for this callback; the copy feeds both the fills and the
// deferred completion.
func (ev *readEvent) filled(at units.Time, data []byte) {
	copy(ev.data, data)
	ev.h.fillAll(ev.addr, ev.data, false)
	ev.at = at.Add(ev.lat)
	ev.h.eng.At(ev.at, ev.fire)
}

// run completes the read. The record goes back to the freelist only
// after the callback, which may issue reads of its own while it still
// reads ev.data.
func (ev *readEvent) run() {
	ev.onDone(ev.at, ev.data)
	ev.recycle()
}

// SubmitWrite is a full-line store: write-allocate into L1 (no fetch
// needed, the payload covers the line), dirty. It back-pressures when
// the write-back buffer is full.
func (h *Hierarchy) SubmitWrite(addr pcm.LineAddr, data []byte, onDone func(at units.Time)) bool {
	if len(h.wbBuf) >= h.wbMax {
		return false
	}
	if li, ok := h.levels[0].lookup(addr); ok {
		l := h.levels[0]
		copy(l.slotData(li), data)
		l.dirty[li] = true
	} else {
		h.fill(0, addr, data, true)
	}
	if onDone != nil {
		at := h.eng.Now().Add(h.levels[0].cfg.Latency)
		h.eng.At(at, func() { onDone(at) })
	}
	return true
}

// WhenWriteSpace registers fn for when the hierarchy can accept stores
// again.
func (h *Hierarchy) WhenWriteSpace(fn func()) {
	if len(h.wbBuf) < h.wbMax {
		h.eng.After(0, fn)
		return
	}
	h.waiters = append(h.waiters, fn)
}

// fillAll inserts into every level, top down.
func (h *Hierarchy) fillAll(addr pcm.LineAddr, data []byte, dirty bool) {
	for i := range h.levels {
		h.fill(i, addr, data, dirty && i == 0) // dirtiness tracked at L1; lower copies clean
	}
}

// fill inserts a line into level i, cascading any dirty victim downward.
// The victim's payload lives in level i's victim buffer, which stays
// valid across the cascade because each level of the recursion only
// inserts into the level below it.
func (h *Hierarchy) fill(i int, addr pcm.LineAddr, data []byte, dirty bool) {
	vAddr, vData, vDirty, evicted := h.levels[i].insert(addr, data, dirty)
	if !evicted || !vDirty {
		return
	}
	h.levels[i].st.WriteBacks++
	if i+1 < len(h.levels) {
		// Install into the next level as dirty (updating in place on hit).
		if li, ok := h.levels[i+1].lookup(vAddr); ok {
			l := h.levels[i+1]
			copy(l.slotData(li), vData)
			l.dirty[li] = true
			return
		}
		h.fill(i+1, vAddr, vData, true)
		return
	}
	// Last level: the victim leaves the hierarchy for PCM.
	h.pushWriteBack(vAddr, vData)
}

// pushWriteBack sends a last-level victim to memory. data is the level's
// victim buffer; only a write-back that has to wait in wbBuf copies it,
// into a recycled line buffer.
func (h *Hierarchy) pushWriteBack(addr pcm.LineAddr, data []byte) {
	// Coalesce with a buffered write-back to the same line: the newer
	// data supersedes.
	for i := range h.wbBuf {
		if h.wbBuf[i].addr == addr {
			copy(h.wbBuf[i].data, data)
			return
		}
	}
	// Preserve FIFO: while older write-backs wait, newer ones must queue
	// behind them, or a stale buffered line could overwrite a fresher
	// direct submission at the controller. The controller copies what
	// it accepts.
	if len(h.wbBuf) == 0 && h.mem.SubmitWrite(addr, data, nil) {
		return
	}
	h.wbBuf = append(h.wbBuf, wbEntry{addr: addr, data: h.newWriteBack(data)})
	h.scheduleRetry()
}

// newWriteBack returns a copy of data in a line buffer from the
// freelist; freeWriteBack returns a buffer once its write-back has left
// wbBuf, so steady-state write-backs allocate nothing.
func (h *Hierarchy) newWriteBack(data []byte) []byte {
	var buf []byte
	if n := len(h.wbFree); n > 0 {
		buf = h.wbFree[n-1]
		h.wbFree = h.wbFree[:n-1]
	} else {
		buf = make([]byte, len(data))
	}
	copy(buf, data)
	return buf
}

func (h *Hierarchy) freeWriteBack(buf []byte) { h.wbFree = append(h.wbFree, buf) }

func (h *Hierarchy) scheduleRetry() {
	if h.retrying {
		return
	}
	h.retrying = true
	h.mem.WhenWriteSpace(h.retryFn)
}

// retryWriteBacks resubmits the buffered write-backs in FIFO order until
// the controller refuses one, then waits for space again.
func (h *Hierarchy) retryWriteBacks() {
	h.retrying = false
	sent := 0
	for sent < len(h.wbBuf) && h.mem.SubmitWrite(h.wbBuf[sent].addr, h.wbBuf[sent].data, nil) {
		h.freeWriteBack(h.wbBuf[sent].data)
		sent++
	}
	h.wbBuf = append(h.wbBuf[:0], h.wbBuf[sent:]...)
	if len(h.wbBuf) > 0 {
		h.scheduleRetry()
		return
	}
	h.drainWaiters()
}

func (h *Hierarchy) drainWaiters() {
	if len(h.wbBuf) >= h.wbMax {
		return
	}
	// After only schedules, so no waiter re-registers during the loop
	// and the slice can be reused.
	for _, fn := range h.waiters {
		h.eng.After(0, fn)
	}
	clear(h.waiters)
	h.waiters = h.waiters[:0]
}

// Flush writes every dirty line back to memory (functionally, ignoring
// timing) — used at the end of integration tests to compare memory
// contents against a reference model. force must copy the data it
// keeps: the buffered write-backs' buffers are recycled. It returns the
// number of lines flushed.
func (h *Hierarchy) Flush(force func(addr pcm.LineAddr, data []byte)) int {
	n := 0
	// Deepest-level copies may be stale if an upper level is dirtier;
	// flush top-down so the freshest data wins last... rather: collect
	// the freshest copy per address by walking top-down and skipping
	// addresses already flushed.
	seen := linestore.NewSet()
	for _, l := range h.levels {
		if l.empty() {
			continue
		}
		for si := 0; si < l.nsets; si++ {
			base := si * l.cfg.Ways
			for r := 0; r < int(l.used[si]); r++ {
				li := l.line[base+r]
				addr := pcm.LineAddr(l.tags[base+r]*int64(l.nsets) + int64(si))
				if seen.Add(int64(addr)) && l.dirty[li] {
					force(addr, l.slotData(li))
					n++
				}
			}
		}
	}
	for _, wb := range h.wbBuf {
		if !seen.Has(int64(wb.addr)) {
			force(wb.addr, wb.data)
			n++
		}
		h.freeWriteBack(wb.data)
	}
	h.wbBuf = h.wbBuf[:0]
	return n
}
