package linestore

// Pending is a small insertion-ordered association from line address to
// a caller-owned byte buffer, for components that track a handful of
// in-flight lines (wear-leveling gap moves, spare-remap staging). It
// replaces map[pcm.LineAddr][]byte there for one reason: iteration
// order. Draining a Go map ranges in randomized order, which silently
// broke replay determinism whenever two pending lines interacted;
// Pending always drains in first-insertion order.
//
// Values are stored by reference — the caller keeps ownership of the
// buffer, exactly like storing a slice in a map.
//
// Concurrency: Pending is deliberately not goroutine-safe — it is a
// single-writer structure owned by the simulation engine's goroutine.
type Pending struct {
	idx  map[Addr]int
	keys []Addr
	vals [][]byte
	dead int // tombstoned entries in keys/vals
	iter int // active Range depth; defers compaction
}

// NewPending creates an empty association.
func NewPending() *Pending {
	return &Pending{idx: make(map[Addr]int)}
}

// Len returns the number of live entries.
func (p *Pending) Len() int { return len(p.idx) }

// Get returns the buffer stored for addr.
func (p *Pending) Get(addr Addr) ([]byte, bool) {
	i, ok := p.idx[addr]
	if !ok {
		return nil, false
	}
	return p.vals[i], true
}

// Put stores buf for addr. Re-putting an existing address replaces the
// buffer in place, keeping its original drain position.
func (p *Pending) Put(addr Addr, buf []byte) {
	if i, ok := p.idx[addr]; ok {
		p.vals[i] = buf
		return
	}
	p.idx[addr] = len(p.keys)
	p.keys = append(p.keys, addr)
	p.vals = append(p.vals, buf)
}

// Delete removes addr, reporting whether it was present.
func (p *Pending) Delete(addr Addr) bool {
	i, ok := p.idx[addr]
	if !ok {
		return false
	}
	delete(p.idx, addr)
	p.vals[i] = nil // tombstone; compacted when they dominate
	p.dead++
	if p.iter == 0 && p.dead > len(p.keys)/2 && p.dead > 16 {
		p.compact()
	}
	return true
}

func (p *Pending) compact() {
	w := 0
	for r, k := range p.keys {
		i, ok := p.idx[k]
		if !ok || i != r {
			continue // deleted, or superseded by a later re-insert
		}
		p.keys[w] = k
		p.vals[w] = p.vals[r]
		p.idx[k] = w
		w++
	}
	for i := w; i < len(p.vals); i++ {
		p.vals[i] = nil
	}
	p.keys = p.keys[:w]
	p.vals = p.vals[:w]
	p.dead = 0
}

// Range calls fn for every live entry in insertion order until fn
// returns false. fn may Delete the current entry; inserting during
// iteration is not supported.
func (p *Pending) Range(fn func(addr Addr, buf []byte) bool) {
	p.iter++
	defer func() {
		p.iter--
		if p.iter == 0 && p.dead > len(p.keys)/2 && p.dead > 16 {
			p.compact()
		}
	}()
	for r := 0; r < len(p.keys); r++ {
		k := p.keys[r]
		i, ok := p.idx[k]
		if !ok || i != r {
			continue
		}
		if !fn(k, p.vals[r]) {
			return
		}
	}
}
