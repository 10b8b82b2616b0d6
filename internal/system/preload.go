package system

import (
	"fmt"

	"tetriswrite/internal/cpu"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/units"
	"tetriswrite/internal/workload"
)

// preloadPort interposes on the core->memory path to install each line's
// initial contents in the device before its first access, so the write
// schemes see the workload's real data transitions rather than
// transitions from an artificially blank array. With wear leveling the
// install happens at the line's *current physical* slot, via translate.
type preloadPort struct {
	down      cpu.MemPort
	dev       *pcm.Device
	prog      *workload.Program
	seen      firstTouch
	translate func(pcm.LineAddr) pcm.LineAddr
	initBuf   []byte // scratch for the initial image; Preload copies it
}

func (p *preloadPort) ensure(addr pcm.LineAddr) {
	if !p.seen.add(addr) {
		return
	}
	phys := addr
	if p.translate != nil {
		phys = p.translate(addr)
	}
	if p.initBuf == nil {
		p.initBuf = make([]byte, p.dev.Params().LineBytes)
	}
	p.prog.InitialContentsInto(addr, p.initBuf)
	p.dev.Preload(phys, p.initBuf)
}

func (p *preloadPort) SubmitRead(addr pcm.LineAddr, onDone func(at units.Time, data []byte)) bool {
	p.ensure(addr)
	return p.down.SubmitRead(addr, onDone)
}

func (p *preloadPort) SubmitWrite(addr pcm.LineAddr, data []byte, onDone func(at units.Time)) bool {
	p.ensure(addr)
	return p.down.SubmitWrite(addr, data, onDone)
}

func (p *preloadPort) WhenWriteSpace(fn func()) { p.down.WhenWriteSpace(fn) }

// firstTouch records which of a program's lines have been touched, in
// bitmaps over the fixed regions workload.NewProgram lays out: one
// bitmap covers the private and shared regions below AddressFootprint,
// and one per core covers that core's fresh-allocation window. A
// frontier advances one line at a time from the start of its window, so
// each window's bitmap grows only as far as its frontier has reached.
type firstTouch struct {
	resident   []uint64 // AddressFootprint bits, allocated at the first touch
	footprint  int64
	frontBase  int64      // start of core 0's window
	frontLines int64      // lines per window
	frontier   [][]uint64 // per core, grown on demand
}

func newFirstTouch(prog *workload.Program) firstTouch {
	fp := prog.AddressFootprint()
	base, lines := prog.FrontierWindow(0)
	return firstTouch{
		footprint:  fp,
		frontBase:  int64(base),
		frontLines: lines,
		frontier:   make([][]uint64, prog.Cores()),
	}
}

// add marks addr touched and reports whether this was its first touch.
// An address outside every region of the program panics: no Generator
// of it can name one, so a caller that does is broken.
func (f *firstTouch) add(addr pcm.LineAddr) bool {
	a := int64(addr)
	if uint64(a) < uint64(f.footprint) {
		if f.resident == nil {
			f.resident = make([]uint64, (f.footprint+63)/64)
		}
		return testAndSet(f.resident, uint64(a))
	}
	off := a - f.frontBase
	if off < 0 || off >= f.frontLines*int64(len(f.frontier)) {
		panic(fmt.Sprintf("system: line %d is outside the program's regions (static [0, %d), frontier windows [%d, %d))",
			a, f.footprint, f.frontBase, f.frontBase+f.frontLines*int64(len(f.frontier))))
	}
	core, i := off/f.frontLines, uint64(off%f.frontLines)
	bm := f.frontier[core]
	if w := int(i / 64); w >= len(bm) {
		bm = append(bm, make([]uint64, w+1-len(bm))...)
		f.frontier[core] = bm
	}
	return testAndSet(bm, i)
}

// testAndSet sets bit i of bm and reports whether it was clear.
func testAndSet(bm []uint64, i uint64) bool {
	w, bit := &bm[i/64], uint64(1)<<(i%64)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}
