package cache

import (
	"bytes"
	"sort"
	"testing"

	"tetriswrite/internal/pcm"
)

// refLine is one line of the reference model.
type refLine struct {
	addr  pcm.LineAddr
	dirty bool
	data  []byte
}

// refLevel is a deliberately naive set-associative LRU cache: per set, a
// list of lines in MRU-first order, searched linearly and rebuilt on
// every promotion.
type refLevel struct {
	nsets, ways int
	sets        [][]refLine
}

func (r *refLevel) set(addr pcm.LineAddr) int { return int(addr) % r.nsets }

// touch finds addr and moves it to MRU.
func (r *refLevel) touch(addr pcm.LineAddr) (*refLine, bool) {
	s := r.set(addr)
	for i, ln := range r.sets[s] {
		if ln.addr == addr {
			rest := append(append([]refLine{}, r.sets[s][:i]...), r.sets[s][i+1:]...)
			r.sets[s] = append([]refLine{ln}, rest...)
			return &r.sets[s][0], true
		}
	}
	return nil, false
}

// insert adds addr at MRU, dropping and returning the LRU line of a
// full set.
func (r *refLevel) insert(addr pcm.LineAddr, data []byte, dirty bool) (victim refLine, evicted bool) {
	s := r.set(addr)
	if len(r.sets[s]) == r.ways {
		victim, evicted = r.sets[s][r.ways-1], true
		r.sets[s] = r.sets[s][:r.ways-1]
	}
	ln := refLine{addr: addr, dirty: dirty, data: append([]byte(nil), data...)}
	r.sets[s] = append([]refLine{ln}, r.sets[s]...)
	return victim, evicted
}

// FuzzLevelMatchesLRUReference applies a fuzzed stream of reads and
// writes to one small level and to the reference model, the way the
// hierarchy drives a level: a read hit returns the payload, a read miss
// fills the line clean, a write hit overwrites the payload and marks it
// dirty, a write miss fills it dirty. After every op the two must agree
// on hit or miss, on whether a line was evicted, and on the victim's
// address, dirty bit and payload; at the end Flush must write back
// exactly the model's dirty lines.
//
// The first input byte picks the geometry (1-4 sets of 1-4 ways); each
// following 3 bytes are one op: address (mod 32 lines), read or write
// (low bit), and the byte the payload is made of.
func FuzzLevelMatchesLRUReference(f *testing.F) {
	f.Add([]byte{5, 0, 1, 7, 4, 1, 8, 0, 0, 0, 8, 0, 9, 12, 1, 3, 0, 0, 0})
	f.Add([]byte{0, 1, 1, 1, 2, 1, 2, 1, 0, 3, 3, 1, 3, 2, 0, 0})
	f.Add([]byte{15, 31, 1, 255, 30, 0, 254, 29, 1, 253, 31, 0, 0, 28, 1, 1, 27, 1, 2, 26, 1, 3, 25, 1, 4})
	const lineBytes = 8
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		ways, nsets := 1+int(in[0]%4), 1+int(in[0]/4%4)
		l, err := newLevel(LevelConfig{Name: "f", SizeBytes: nsets * ways * lineBytes, LineBytes: lineBytes, Ways: ways})
		if err != nil {
			t.Fatal(err)
		}
		ref := &refLevel{nsets: nsets, ways: ways, sets: make([][]refLine, nsets)}
		data := make([]byte, lineBytes)
		for k, op := 0, in[1:]; len(op) >= 3; k, op = k+1, op[3:] {
			addr, write := pcm.LineAddr(op[0]%32), op[1]&1 == 1
			for i := range data {
				data[i] = op[2] ^ byte(i*37)
			}
			li, hit := l.lookup(addr)
			rl, refHit := ref.touch(addr)
			if hit != refHit {
				t.Fatalf("op %d (addr %d): level hit=%v, reference hit=%v", k, addr, hit, refHit)
			}
			if hit {
				if !write {
					if got := l.slotData(li); !bytes.Equal(got, rl.data) {
						t.Fatalf("op %d: read hit on %d returned %x, reference %x", k, addr, got, rl.data)
					}
					continue
				}
				copy(l.slotData(li), data)
				l.dirty[li] = true
				copy(rl.data, data)
				rl.dirty = true
				continue
			}
			vAddr, vData, vDirty, evicted := l.insert(addr, data, write)
			v, refEvicted := ref.insert(addr, data, write)
			if evicted != refEvicted {
				t.Fatalf("op %d (addr %d): level evicted=%v, reference evicted=%v", k, addr, evicted, refEvicted)
			}
			if evicted && (vAddr != v.addr || vDirty != v.dirty || !bytes.Equal(vData, v.data)) {
				t.Fatalf("op %d: victim {%d %v %x}, reference {%d %v %x}",
					k, vAddr, vDirty, vData, v.addr, v.dirty, v.data)
			}
		}

		type flushed struct {
			addr pcm.LineAddr
			data string
		}
		var got, want []flushed
		h := &Hierarchy{levels: []*level{l}}
		h.Flush(func(addr pcm.LineAddr, d []byte) { got = append(got, flushed{addr, string(d)}) })
		for _, set := range ref.sets {
			for _, ln := range set {
				if ln.dirty {
					want = append(want, flushed{ln.addr, string(ln.data)})
				}
			}
		}
		for _, s := range [][]flushed{got, want} {
			sort.Slice(s, func(i, j int) bool { return s[i].addr < s[j].addr })
		}
		if len(got) != len(want) {
			t.Fatalf("Flush wrote %d lines, reference has %d dirty", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Flush line %d: {%d %x}, reference {%d %x}", i, got[i].addr, got[i].data, want[i].addr, want[i].data)
			}
		}
	})
}
