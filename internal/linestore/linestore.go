// Package linestore provides the simulator's sparse line-state
// containers: a sharded open-addressing hash table that stores each
// memory line inline as a fixed run of uint64 words (Store), an address
// set with the same layout (Set), and a small insertion-ordered
// association for in-flight line buffers (Pending).
//
// The Store replaces the map[pcm.LineAddr][]byte pattern that scattered
// every 64-byte line behind its own slice header: lines live
// back-to-back in one flat arena per shard, so the bit-diff/popcount
// write path works on word-aligned memory with no pointer chase and the
// garbage collector sees a handful of large slices instead of millions
// of tiny ones. All iteration orders are deterministic functions of the
// insertion sequence — never of Go map randomization — which the
// simulator's replay-identical contract depends on.
package linestore

import "encoding/binary"

// Addr is a line address. It mirrors pcm.LineAddr (an int64 line index);
// the package takes the raw integer to stay import-cycle-free below the
// pcm layer. Addresses must be non-negative: the table uses -1 as its
// empty-slot sentinel.
type Addr = int64

const (
	numShards  = 16
	shardShift = 48 // shard = bits 48..51 of the hash; slot = low bits
	emptyKey   = Addr(-1)

	// minSlots is the initial per-shard capacity on first insert. Power
	// of two, like every later capacity.
	minSlots = 64

	// maxLoadNum/maxLoadDen is the grow threshold (3/4). Linear probing
	// degrades sharply past this point.
	maxLoadNum = 3
	maxLoadDen = 4
)

// hashAddr is splitmix64's finalizer: cheap, and strong enough that
// sequential line addresses spread across shards and slots.
func hashAddr(a Addr) uint64 {
	z := uint64(a) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// shard is one open-addressing region: keys[i] owns
// words[i*wpl : (i+1)*wpl] in the flat arena.
type shard struct {
	keys  []Addr
	words []uint64
	n     int
}

// Store maps line addresses to fixed-width lines of inline uint64 words.
// The zero value is unusable; construct with NewStore. Store is not
// safe for concurrent use — callers that share one (pcm.Device) hold
// their own lock, matching the map it replaces.
type Store struct {
	wpl    int // words per line
	shards [numShards]shard
}

// Words returns the number of uint64 words needed to hold lineBytes
// bytes (the tail word is zero-padded when lineBytes is not a multiple
// of 8).
func Words(lineBytes int) int { return (lineBytes + 7) / 8 }

// NewStore creates an empty store holding wordsPerLine words per line.
func NewStore(wordsPerLine int) *Store {
	if wordsPerLine <= 0 {
		panic("linestore: words per line must be positive")
	}
	return &Store{wpl: wordsPerLine}
}

// Len returns the number of stored lines.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].n
	}
	return n
}

// Capacity returns the total slot capacity across shards (for load
// telemetry; zero before the first insert).
func (s *Store) Capacity() int {
	c := 0
	for i := range s.shards {
		c += len(s.shards[i].keys)
	}
	return c
}

// LoadFactor returns stored lines over slot capacity, 0 when empty.
func (s *Store) LoadFactor() float64 {
	c := s.Capacity()
	if c == 0 {
		return 0
	}
	return float64(s.Len()) / float64(c)
}

func (sh *shard) find(key Addr, h uint64) int {
	mask := uint64(len(sh.keys) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		k := sh.keys[i]
		if k == key {
			return int(i)
		}
		if k == emptyKey {
			return -1
		}
	}
}

// Reserve pre-sizes every shard for about `lines` total inserts, so a
// store whose final footprint is known up front (a device sized to its
// workload's address span) skips the doubling-and-rehash ladder that
// otherwise dominates cold-start insertion. Shards that already hold
// data or have enough capacity are left alone; lookups and contents are
// unaffected — only the slot layout (and capacity telemetry) differ
// from a grown store.
func (s *Store) Reserve(lines int) {
	if lines <= 0 {
		return
	}
	perShard := (lines + numShards - 1) / numShards
	// Capacity such that the grow threshold (3/4 load) is not reached
	// while inserting perShard keys.
	want := minSlots
	for maxLoadDen*(perShard+1) > maxLoadNum*want {
		want *= 2
	}
	for si := range s.shards {
		sh := &s.shards[si]
		if sh.n > 0 || len(sh.keys) >= want {
			continue
		}
		sh.keys = make([]Addr, want)
		for i := range sh.keys {
			sh.keys[i] = emptyKey
		}
		sh.words = make([]uint64, want*s.wpl)
	}
}

func (sh *shard) grow(wpl int) {
	newCap := minSlots
	if len(sh.keys) > 0 {
		newCap = len(sh.keys) * 2
	}
	oldKeys, oldWords := sh.keys, sh.words
	sh.keys = make([]Addr, newCap)
	for i := range sh.keys {
		sh.keys[i] = emptyKey
	}
	sh.words = make([]uint64, newCap*wpl)
	mask := uint64(newCap - 1)
	for i, k := range oldKeys {
		if k == emptyKey {
			continue
		}
		j := hashAddr(k) & mask
		for sh.keys[j] != emptyKey {
			j = (j + 1) & mask
		}
		sh.keys[j] = k
		copy(sh.words[int(j)*wpl:(int(j)+1)*wpl], oldWords[i*wpl:(i+1)*wpl])
	}
}

// Get returns the line's words, or nil when the line was never stored.
// The returned slice aliases the store; it stays valid until the next
// Ensure on the same store (which may rehash).
func (s *Store) Get(addr Addr) []uint64 {
	h := hashAddr(addr)
	sh := &s.shards[(h>>shardShift)&(numShards-1)]
	if sh.n == 0 {
		return nil
	}
	i := sh.find(addr, h)
	if i < 0 {
		return nil
	}
	return sh.words[i*s.wpl : (i+1)*s.wpl : (i+1)*s.wpl]
}

// Ensure returns the line's words, inserting an all-zero line first if
// absent. The returned slice aliases the store and is invalidated by
// the next Ensure.
func (s *Store) Ensure(addr Addr) []uint64 {
	if addr < 0 {
		panic("linestore: negative line address")
	}
	h := hashAddr(addr)
	sh := &s.shards[(h>>shardShift)&(numShards-1)]
	if maxLoadDen*(sh.n+1) > maxLoadNum*len(sh.keys) {
		sh.grow(s.wpl)
	}
	mask := uint64(len(sh.keys) - 1)
	i := h & mask
	for {
		k := sh.keys[i]
		if k == addr {
			break
		}
		if k == emptyKey {
			sh.keys[i] = addr
			sh.n++
			break
		}
		i = (i + 1) & mask
	}
	return sh.words[int(i)*s.wpl : (int(i)+1)*s.wpl : (int(i)+1)*s.wpl]
}

// Range calls fn for every stored line until fn returns false. The
// order is a deterministic function of the insertion sequence (shard by
// shard, slot by slot), not sorted; callers needing sorted output
// collect and sort the addresses.
func (s *Store) Range(fn func(addr Addr, words []uint64) bool) {
	for si := range s.shards {
		sh := &s.shards[si]
		for i, k := range sh.keys {
			if k == emptyKey {
				continue
			}
			if !fn(k, sh.words[i*s.wpl:(i+1)*s.wpl:(i+1)*s.wpl]) {
				return
			}
		}
	}
}

// PackLine copies src bytes into dst words little-endian, zero-padding
// the tail word. len(dst) must be Words(len(src)).
func PackLine(dst []uint64, src []byte) {
	n := len(src) / 8
	for i := 0; i < n; i++ {
		dst[i] = binary.LittleEndian.Uint64(src[i*8:])
	}
	if tail := len(src) & 7; tail != 0 {
		var w uint64
		for i, b := range src[n*8:] {
			w |= uint64(b) << (8 * i)
		}
		dst[n] = w
	}
}

// UnpackLine copies src words into dst bytes little-endian.
// len(src) must be Words(len(dst)).
func UnpackLine(dst []byte, src []uint64) {
	n := len(dst) / 8
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(dst[i*8:], src[i])
	}
	if tail := len(dst) & 7; tail != 0 {
		w := src[n]
		for i := range dst[n*8:] {
			dst[n*8+i] = byte(w >> (8 * i))
		}
	}
}
