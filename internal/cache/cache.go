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

// level is one set-associative array in structure-of-arrays layout: one
// flat tag array, one flat data arena and one dirty bitmap, indexed by
// (set, way). Entries within a set are kept in LRU order by permuting
// the rank vectors (tags plus way indices — 9 bytes per line) while the
// line data stays put in its slot, so a hit is a single set-indexed
// probe over contiguous tags and a promotion never moves line payloads.
//
// The arrays are allocated on the level's first insert: a 32 MB L3
// costs tens of megabytes to allocate and zero, which a run that never
// reaches the level should not pay. Until then every lookup misses.
type level struct {
	cfg   LevelConfig
	nsets int
	st    Stats

	tags  []int64 // nsets*Ways, rank-ordered per set (rank 0 = MRU)
	way   []uint8 // nsets*Ways, rank -> data slot within the set
	used  []uint8 // per set: ranks occupied
	dirty []bool  // per (set, way) data slot
	data  []byte  // nsets*Ways*LineBytes, per (set, way) data slot

	// victimBuf carries an evicted line's payload out of insert — the
	// new line overwrites the victim's slot in place. One buffer per
	// level is enough: a write-back cascade touches each level once.
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
	return &level{cfg: cfg, nsets: nsets}, nil
}

// allocate builds the level's arrays; insert calls it on first use.
func (l *level) allocate() {
	slots := l.nsets * l.cfg.Ways
	l.tags = make([]int64, slots)
	l.way = make([]uint8, slots)
	l.used = make([]uint8, l.nsets)
	l.dirty = make([]bool, slots)
	l.data = make([]byte, slots*l.cfg.LineBytes)
	l.victimBuf = make([]byte, l.cfg.LineBytes)
}

// empty reports whether the level has never held a line (its arrays are
// not allocated yet).
func (l *level) empty() bool { return l.used == nil }

func (l *level) setOf(addr pcm.LineAddr) int   { return int(int64(addr) % int64(l.nsets)) }
func (l *level) tagOf(addr pcm.LineAddr) int64 { return int64(addr) / int64(l.nsets) }

// slotData returns the payload of data slot w of set si.
func (l *level) slotData(si int, w uint8) []byte {
	off := (si*l.cfg.Ways + int(w)) * l.cfg.LineBytes
	return l.data[off : off+l.cfg.LineBytes : off+l.cfg.LineBytes]
}

// lookup probes the line's set and returns its (set, slot) pair,
// promoting it to MRU, or ok=false on miss. The tag scan runs over the
// set's contiguous rank-ordered tag window — one bounds check, no
// pointer chasing.
func (l *level) lookup(addr pcm.LineAddr) (si int, w uint8, ok bool) {
	if l.empty() {
		l.st.Misses++
		return 0, 0, false
	}
	si = l.setOf(addr)
	tag := l.tagOf(addr)
	base := si * l.cfg.Ways
	n := int(l.used[si])
	tags := l.tags[base : base+n]
	for r := range tags {
		if tags[r] == tag {
			w = l.way[base+r]
			if r > 0 {
				copy(l.tags[base+1:base+r+1], l.tags[base:base+r])
				copy(l.way[base+1:base+r+1], l.way[base:base+r])
				l.tags[base] = tag
				l.way[base] = w
			}
			l.st.Hits++
			return si, w, true
		}
	}
	l.st.Misses++
	return 0, 0, false
}

// insert allocates a line (MRU), copying data into the claimed slot. An
// evicted victim is reported with its payload moved to the level's
// victim buffer (valid until the next insert on this level).
func (l *level) insert(addr pcm.LineAddr, data []byte, dirty bool) (victimAddr pcm.LineAddr, victimData []byte, victimDirty, evicted bool) {
	if l.empty() {
		l.allocate()
	}
	si := l.setOf(addr)
	base := si * l.cfg.Ways
	n := int(l.used[si])
	var w uint8
	if n < l.cfg.Ways {
		w = uint8(n) // slots are claimed in insertion order
		l.used[si] = uint8(n + 1)
	} else {
		// Reuse the LRU victim's slot, carrying its payload out first.
		vw := l.way[base+n-1]
		victimAddr = pcm.LineAddr(l.tags[base+n-1]*int64(l.nsets) + int64(si))
		copy(l.victimBuf, l.slotData(si, vw))
		victimData, victimDirty, evicted = l.victimBuf, l.dirty[base+int(vw)], true
		l.st.Evictions++
		w = vw
		n--
	}
	copy(l.tags[base+1:base+n+1], l.tags[base:base+n])
	copy(l.way[base+1:base+n+1], l.way[base:base+n])
	l.tags[base] = l.tagOf(addr)
	l.way[base] = w
	l.dirty[base+int(w)] = dirty
	copy(l.slotData(si, w), data)
	return victimAddr, victimData, victimDirty, evicted
}

// Hierarchy is the three-level cache stack in front of the memory
// controller. It implements cpu.MemPort.
type Hierarchy struct {
	eng    *sim.Engine
	levels []*level
	mem    Mem

	// wbBuf holds write-backs the controller rejected; wbMax bounds it,
	// beyond which the hierarchy back-pressures the cores.
	wbBuf    []wbEntry
	wbMax    int
	retrying bool
	waiters  []func()

	// readFree recycles read records (see readEvent).
	readFree []*readEvent

	// OnDirty, if set, is invoked whenever a store makes a line dirty
	// that was not dirty before — the hook PreSET hint generation hangs
	// off.
	OnDirty func(addr pcm.LineAddr)
}

type wbEntry struct {
	addr pcm.LineAddr
	data []byte
}

// Mem is the memory side of the hierarchy: implemented by
// memctrl.Controller (possibly wrapped).
type Mem interface {
	SubmitRead(addr pcm.LineAddr, onDone func(at units.Time, data []byte)) bool
	SubmitWrite(addr pcm.LineAddr, data []byte, onDone func(at units.Time)) bool
	WhenWriteSpace(fn func())
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
func New(eng *sim.Engine, mem Mem, cfgs []LevelConfig) (*Hierarchy, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cache: no levels")
	}
	h := &Hierarchy{eng: eng, mem: mem, wbMax: 64}
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
		if si, w, ok := l.lookup(addr); ok {
			// Fill the levels above (inclusive-ish: keeps upper levels
			// warm like the common inclusive hierarchy).
			ev := h.newReadEvent(onDone)
			copy(ev.data, l.slotData(si, w))
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
	if si, w, ok := h.levels[0].lookup(addr); ok {
		l := h.levels[0]
		di := si*l.cfg.Ways + int(w)
		wasDirty := l.dirty[di]
		copy(l.slotData(si, w), data)
		l.dirty[di] = true
		if !wasDirty && h.OnDirty != nil {
			h.OnDirty(addr)
		}
	} else {
		h.fill(0, addr, data, true)
		if h.OnDirty != nil {
			h.OnDirty(addr)
		}
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
		if si, w, ok := h.levels[i+1].lookup(vAddr); ok {
			l := h.levels[i+1]
			copy(l.slotData(si, w), vData)
			l.dirty[si*l.cfg.Ways+int(w)] = true
			return
		}
		h.fill(i+1, vAddr, vData, true)
		return
	}
	// Last level: the victim leaves the hierarchy for PCM; it must own
	// its bytes — the victim buffer is recycled on the next eviction.
	h.pushWriteBack(wbEntry{addr: vAddr, data: append([]byte(nil), vData...)})
}

func (h *Hierarchy) pushWriteBack(wb wbEntry) {
	// Coalesce with a buffered write-back to the same line: the newer
	// data supersedes.
	for i := range h.wbBuf {
		if h.wbBuf[i].addr == wb.addr {
			h.wbBuf[i].data = wb.data
			return
		}
	}
	// Preserve FIFO: while older write-backs wait, newer ones must queue
	// behind them, or a stale buffered line could overwrite a fresher
	// direct submission at the controller.
	if len(h.wbBuf) == 0 && h.mem.SubmitWrite(wb.addr, wb.data, nil) {
		return
	}
	h.wbBuf = append(h.wbBuf, wb)
	h.scheduleRetry()
}

func (h *Hierarchy) scheduleRetry() {
	if h.retrying {
		return
	}
	h.retrying = true
	h.mem.WhenWriteSpace(func() {
		h.retrying = false
		for len(h.wbBuf) > 0 {
			if !h.mem.SubmitWrite(h.wbBuf[0].addr, h.wbBuf[0].data, nil) {
				h.scheduleRetry()
				return
			}
			h.wbBuf = h.wbBuf[1:]
		}
		h.drainWaiters()
	})
}

func (h *Hierarchy) drainWaiters() {
	if len(h.wbBuf) >= h.wbMax {
		return
	}
	ws := h.waiters
	h.waiters = nil
	for _, fn := range ws {
		h.eng.After(0, fn)
	}
}

// IsDirty reports whether any level (or the write-back buffer) holds a
// dirty copy of the line, i.e. whether the PCM copy is currently dead.
// This is the dirtiness oracle PreSET consults before destroying a
// memory copy.
func (h *Hierarchy) IsDirty(addr pcm.LineAddr) bool {
	for _, l := range h.levels {
		if l.empty() {
			continue
		}
		si := l.setOf(addr)
		tag := l.tagOf(addr)
		base := si * l.cfg.Ways
		for r := 0; r < int(l.used[si]); r++ {
			if l.tags[base+r] == tag && l.dirty[base+int(l.way[base+r])] {
				return true
			}
		}
	}
	for _, wb := range h.wbBuf {
		if wb.addr == addr {
			return true
		}
	}
	return false
}

// Flush writes every dirty line back to memory (functionally, ignoring
// timing) — used at the end of integration tests to compare memory
// contents against a reference model. It returns the number of lines
// flushed.
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
				w := l.way[base+r]
				addr := pcm.LineAddr(l.tags[base+r]*int64(l.nsets) + int64(si))
				if seen.Add(int64(addr)) && l.dirty[base+int(w)] {
					force(addr, l.slotData(si, w))
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
	}
	h.wbBuf = nil
	return n
}
