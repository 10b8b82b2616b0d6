package pcm

import (
	"fmt"
	"math/bits"

	"tetriswrite/internal/linestore"
)

// LineAddr identifies one cache-line-sized region of the PCM address
// space: the byte address divided by the line size.
type LineAddr int64

// FaultModel intercepts the array's cell-level behaviour: writes land
// through it (so stuck or transiently failed cells keep their old
// values) and reads observe stuck bits. internal/fault provides the
// deterministic implementation; a nil model is the ideal device.
type FaultModel interface {
	// ApplyWrite mutates want in place to the image that actually lands
	// when programming a line whose stored contents are old.
	ApplyWrite(addr LineAddr, old, want []byte)
	// ApplyRead forces stuck cells to their stuck values in data.
	ApplyRead(addr LineAddr, data []byte)
}

// Device is the stateful PCM array: the stored contents of every line plus
// programming-activity counters (per-line wear is tracked by the
// controller that drives the device). Contents are stored sparsely;
// untouched lines read as all zeros, matching a freshly RESET array.
//
// Lines live inline in a sharded open-addressing store as little-endian
// uint64 words, so the diff/popcount accounting in WriteLine runs on
// eight word XORs instead of sixty-four byte operations and the line
// state costs the garbage collector nothing per line.
//
// Device is not safe for concurrent use: it has a single writer, the
// goroutine that runs the simulation owning it (see the package doc).
type Device struct {
	params Params
	nlines int64 // params.Lines(), the bound every access is checked against

	lines *linestore.Store
	stats DeviceStats
	fault FaultModel // optional cell-failure model (nil = ideal device)

	// scratch buffers for the byte-facing fault-model bridge.
	oldBuf, newBuf []byte
}

// DeviceStats aggregates programming activity on a device. All counters
// are cumulative since construction.
type DeviceStats struct {
	LineReads   int64 // cache-line read operations
	LineWrites  int64 // cache-line write operations
	BitSets     int64 // SET pulses actually driven
	BitResets   int64 // RESET pulses actually driven
	BitsWritten int64 // BitSets + BitResets
	BitsSkipped int64 // cells covered by a write whose value was unchanged
}

// NewDevice creates an empty device with the given parameters, which must
// validate.
func NewDevice(p Params) (*Device, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Device{
		params: p,
		nlines: p.Lines(),
		lines:  linestore.NewStore(linestore.Words(p.LineBytes)),
		oldBuf: make([]byte, p.LineBytes),
		newBuf: make([]byte, p.LineBytes),
	}, nil
}

// MustNewDevice is NewDevice for known-good parameters, panicking on
// error. It exists for tests and examples.
func MustNewDevice(p Params) *Device {
	d, err := NewDevice(p)
	if err != nil {
		panic(err)
	}
	return d
}

// Params returns the device configuration.
func (d *Device) Params() Params { return d.params }

func (d *Device) checkAddr(addr LineAddr) {
	if uint64(addr) >= uint64(d.nlines) {
		panic(fmt.Sprintf("pcm: line address %d out of range [0, %d)", addr, d.nlines))
	}
}

// StoreOccupancy reports the line store's footprint for telemetry:
// distinct lines stored, slot capacity, and load factor.
func (d *Device) StoreOccupancy() (lines, capacity int, load float64) {
	return d.lines.Len(), d.lines.Capacity(), d.lines.LoadFactor()
}

// ReserveLines pre-sizes the cell store for about n distinct lines,
// capped to the device's address space. Callers that know the
// workload's footprint (system.Run) use it to skip the store's
// cold-start rehash ladder; it never changes stored contents.
func (d *Device) ReserveLines(n int64) {
	if max := d.nlines; n > max {
		n = max
	}
	if n <= 0 || n > int64(1)<<31 {
		return
	}
	d.lines.Reserve(int(n))
}

// ReadLine copies the stored contents of addr into dst, which must be
// exactly one line long. It counts as one array read.
func (d *Device) ReadLine(addr LineAddr, dst []byte) {
	d.checkAddr(addr)
	if len(dst) != d.params.LineBytes {
		panic("pcm: ReadLine buffer size mismatch")
	}
	d.stats.LineReads++
	d.peek(addr, dst)
}

// PeekLine is ReadLine without the statistics side effect, for checkers
// and debug output.
func (d *Device) PeekLine(addr LineAddr, dst []byte) {
	d.checkAddr(addr)
	if len(dst) != d.params.LineBytes {
		panic("pcm: PeekLine buffer size mismatch")
	}
	d.peek(addr, dst)
}

func (d *Device) peek(addr LineAddr, dst []byte) {
	if stored := d.lines.Get(int64(addr)); stored != nil {
		linestore.UnpackLine(dst, stored)
	} else {
		for i := range dst {
			dst[i] = 0
		}
	}
	if d.fault != nil {
		d.fault.ApplyRead(addr, dst)
	}
}

// WriteLine stores data at addr and accounts for the pulses a
// content-aware write driver would emit: only cells whose value changes
// are counted as SET or RESET pulses, the rest are skipped (the paper's
// PROG-enable gating). It returns the number of SET and RESET pulses.
//
// With a fault model attached, the counted pulses are the ones the
// driver *attempts* (they cost time, energy and wear whether or not the
// cell switches) but the stored image is what the model lets land: stuck
// cells keep their stuck values and transiently failed pulses leave the
// old bit in place, for verify-retry to catch.
//
// WriteLine models only the array state and energy; service *time* is the
// business of the write schemes, which call this after planning.
func (d *Device) WriteLine(addr LineAddr, data []byte) (sets, resets int) {
	d.checkAddr(addr)
	if len(data) != d.params.LineBytes {
		panic("pcm: WriteLine buffer size mismatch")
	}
	stored := d.lines.Ensure(int64(addr))
	if d.fault == nil {
		// Common case: diff and store entirely in words. The loop is
		// eight XOR+popcount pairs for a 64-byte line.
		n := len(data) / 8
		for i := 0; i < n; i++ {
			w := uint64(data[i*8]) | uint64(data[i*8+1])<<8 |
				uint64(data[i*8+2])<<16 | uint64(data[i*8+3])<<24 |
				uint64(data[i*8+4])<<32 | uint64(data[i*8+5])<<40 |
				uint64(data[i*8+6])<<48 | uint64(data[i*8+7])<<56
			old := stored[i]
			diff := old ^ w
			sets += bits.OnesCount64(diff & w)
			resets += bits.OnesCount64(diff & old)
			stored[i] = w
		}
		for i := n * 8; i < len(data); i++ { // tail when LineBytes % 8 != 0
			wi, sh := i/8, uint(8*(i&7))
			oldB := byte(stored[wi] >> sh)
			diff := oldB ^ data[i]
			sets += bits.OnesCount8(diff & data[i])
			resets += bits.OnesCount8(diff & oldB)
			stored[wi] = stored[wi]&^(0xFF<<sh) | uint64(data[i])<<sh
		}
	} else {
		// Fault path: the model works on bytes, so bridge through the
		// device-owned scratch buffers (no per-write allocation).
		old, landed := d.oldBuf, d.newBuf
		linestore.UnpackLine(old, stored)
		copy(landed, data)
		for i := range data {
			diff := old[i] ^ data[i]
			sets += bits.OnesCount8(diff & data[i])
			resets += bits.OnesCount8(diff & old[i])
		}
		d.fault.ApplyWrite(addr, old, landed)
		linestore.PackLine(stored, landed)
	}
	d.stats.LineWrites++
	d.stats.BitSets += int64(sets)
	d.stats.BitResets += int64(resets)
	d.stats.BitsWritten += int64(sets + resets)
	d.stats.BitsSkipped += int64(8*d.params.LineBytes - sets - resets)
	return sets, resets
}

// AttachFaults installs a cell-failure model on the device's read and
// write paths. Pass nil to restore the ideal device. Attach before the
// first write: the model sees only transitions that happen after it.
func (d *Device) AttachFaults(f FaultModel) {
	d.fault = f
}

// Preload installs a line's contents without any statistics side
// effects. Simulators use it to set up a workload's initial memory image
// before timing starts; a nil or all-zero data leaves the line untouched
// PCM (the default).
func (d *Device) Preload(addr LineAddr, data []byte) {
	d.checkAddr(addr)
	if data == nil {
		return
	}
	if len(data) != d.params.LineBytes {
		panic("pcm: Preload buffer size mismatch")
	}
	linestore.PackLine(d.lines.Ensure(int64(addr)), data)
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() DeviceStats {
	return d.stats
}

// TouchedLines reports how many distinct lines have ever been written,
// i.e. the sparse footprint of the device.
func (d *Device) TouchedLines() int {
	return d.lines.Len()
}
