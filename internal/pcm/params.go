// Package pcm models the Phase Change Memory device that every write
// scheme in this repository programs: its geometry (chips, banks, write
// units), its timing and power asymmetries, its stored contents, and its
// energy/wear accounting.
//
// The model follows the Samsung prototype the paper builds on: a memory
// bank made of four x16 SLC PCM chips, an 8-byte write unit per bank
// (2 bytes per chip), and the three PCM asymmetries:
//
//   - time: a SET pulse (crystallize, write '1') takes ~8x longer than a
//     RESET pulse (amorphize, write '0');
//   - power: a RESET pulse draws ~2x the current of a SET pulse;
//   - count: real workloads change few bits per 64-bit data unit and most
//     changed bits are SETs.
//
// Single-writer contract: a Device belongs to one simulation, and one
// goroutine runs that simulation's event engine, so every Device method
// (reads, writes, preloads and the telemetry polls of its counters) runs
// on that goroutine and the Device takes no locks. Parallel sweeps run
// independent simulations, each with its own Device; nothing in the
// package is shared between them.
package pcm

import (
	"errors"
	"fmt"

	"tetriswrite/internal/units"
)

// Params describes one PCM main-memory configuration. The zero value is
// not usable; start from DefaultParams and override fields as needed, then
// call Validate.
type Params struct {
	// Geometry.
	LineBytes     int // cache-line (write request) size in bytes, typ. 64
	NumChips      int // chips per bank, typ. 4
	ChipWidthBits int // data width of one chip, typ. 16 (x16 parts)
	NumBanks      int // banks per rank
	CapacityBytes int64

	// Timing.
	TRead  units.Duration // array read latency
	TReset units.Duration // RESET (write '0') pulse length
	TSet   units.Duration // SET (write '1') pulse length

	// Power, expressed in units of one SET pulse's current draw.
	CurrentSet       int  // current of one SET pulse, by definition 1
	CurrentReset     int  // current of one RESET pulse, the paper's L (typ. 2)
	ChipBudget       int  // per-chip instantaneous budget in CurrentSet units
	GlobalChargePump bool // GCP: chips may borrow unused budget bank-wide

	// MemClock is the memory bus clock; scheme control FSMs are driven by
	// it, and the Tetris analysis overhead is quoted in its cycles.
	MemClock units.Clock
}

// DefaultParams returns the configuration of the paper's Table II: 64 B
// lines, four x16 chips per bank, 8 banks, 4 GB, 50/53/430 ns
// read/RESET/SET, RESET current twice SET current, and a per-chip budget
// of 32 SET-currents (so 32 concurrent SETs or 16 concurrent RESETs per
// chip; 128 and 64 per bank).
func DefaultParams() Params {
	return Params{
		LineBytes:        64,
		NumChips:         4,
		ChipWidthBits:    16,
		NumBanks:         8,
		CapacityBytes:    4 << 30,
		TRead:            50 * units.Nanosecond,
		TReset:           53 * units.Nanosecond,
		TSet:             430 * units.Nanosecond,
		CurrentSet:       1,
		CurrentReset:     2,
		ChipBudget:       32,
		GlobalChargePump: true,
		MemClock:         units.NewClock(400e6),
	}
}

// Validate checks internal consistency of the parameters.
func (p Params) Validate() error {
	switch {
	case p.LineBytes <= 0:
		return errors.New("pcm: LineBytes must be positive")
	case p.NumChips <= 0:
		return errors.New("pcm: NumChips must be positive")
	case p.ChipWidthBits <= 0 || p.ChipWidthBits%8 != 0:
		return errors.New("pcm: ChipWidthBits must be a positive multiple of 8")
	case p.ChipWidthBits > 16:
		return errors.New("pcm: ChipWidthBits above 16 not supported by the bit-slicing model")
	case p.NumBanks <= 0:
		return errors.New("pcm: NumBanks must be positive")
	case p.CapacityBytes <= 0:
		return errors.New("pcm: CapacityBytes must be positive")
	case p.TRead <= 0 || p.TReset <= 0 || p.TSet <= 0:
		return errors.New("pcm: all timing parameters must be positive")
	case p.TSet < p.TReset:
		return errors.New("pcm: TSet must be >= TReset (PCM time asymmetry)")
	case p.CurrentSet != 1:
		return errors.New("pcm: CurrentSet must be 1 (budget is quoted in SET currents)")
	case p.CurrentReset < 1:
		return errors.New("pcm: CurrentReset must be >= 1")
	case p.ChipBudget < p.CurrentReset:
		return errors.New("pcm: ChipBudget too small to RESET even one cell")
	}
	if p.LineBytes%(p.NumChips*p.ChipWidthBits/8) != 0 {
		return fmt.Errorf("pcm: LineBytes (%d) must be a multiple of the bank write-unit size (%d)",
			p.LineBytes, p.WriteUnitBytes())
	}
	if p.CapacityBytes%int64(p.LineBytes) != 0 {
		return errors.New("pcm: CapacityBytes must be a multiple of LineBytes")
	}
	if (p.MemClock == units.Clock{}) {
		return errors.New("pcm: MemClock must be set")
	}
	return nil
}

// WriteUnitBytes returns the number of bytes one bank programs in parallel
// under the conventional scheme: NumChips * ChipWidthBits / 8 (8 B in the
// default configuration).
func (p Params) WriteUnitBytes() int { return p.NumChips * p.ChipWidthBits / 8 }

// DataUnits returns the number of data units (write units) a cache-line
// write is divided into: LineBytes / WriteUnitBytes (8 by default). The
// paper calls this N/M.
func (p Params) DataUnits() int { return p.LineBytes / p.WriteUnitBytes() }

// K returns the paper's time-asymmetry ratio Tset/Treset, rounded down to
// a whole number of sub-write-units (8 with the default 430/53 ns).
func (p Params) K() int {
	k := int(p.TSet / p.TReset)
	if k < 1 {
		k = 1
	}
	return k
}

// L returns the paper's power-asymmetry ratio Creset/Cset.
func (p Params) L() int { return p.CurrentReset / p.CurrentSet }

// BankBudget returns the instantaneous power budget of a whole bank, in
// SET-current units.
func (p Params) BankBudget() int { return p.ChipBudget * p.NumChips }

// Lines returns the number of cache lines the device stores.
func (p Params) Lines() int64 { return p.CapacityBytes / int64(p.LineBytes) }

// MaxConcurrentSets returns how many SET pulses one chip may drive at
// once.
func (p Params) MaxConcurrentSets() int { return p.ChipBudget / p.CurrentSet }

// MaxConcurrentResets returns how many RESET pulses one chip may drive at
// once.
func (p Params) MaxConcurrentResets() int { return p.ChipBudget / p.CurrentReset }
