// Package mlc models 2-bit multi-level-cell (MLC) PCM programming, the
// substrate behind two statements in the paper: its background section
// ("a PCM cell can store one or more than one bit... In this study, we
// focus on SLC PCM for its better write performance") and its adoption of
// the Global Charge Pump from FPB (Jiang et al., MICRO'12), an MLC
// power-budgeting design.
//
// MLC cells store one of four resistance levels. The extreme levels
// program like SLC (one full RESET or SET pulse); the two intermediate
// levels need iterative program-and-verify (P&V): partial SET pulses
// with a verify read after each, repeated until the resistance lands in
// the target band. The iteration count varies per cell (process
// variation), modelled here as a deterministic hash of the cell address
// and target level so simulations replay identically.
//
// The package quantifies the SLC-vs-MLC write-time gap (the
// `tetrisbench -mlc` table): storing the same data in half the cells
// costs several times the latency and energy, which is why the paper's
// scheduling problem is posed for SLC.
package mlc

import (
	"fmt"

	"tetriswrite/internal/pcm"
	"tetriswrite/internal/units"
)

// Level is one of the four resistance levels of a 2-bit cell: 0 is fully
// amorphous (RESET, stores 00), 3 fully crystalline (SET, stores 11), 1
// and 2 are the partial levels requiring program-and-verify.
type Level uint8

// Params configures the MLC programming model.
type Params struct {
	// TReset and TSet are the full-swing pulse times (SLC values).
	TReset units.Duration
	TSet   units.Duration
	// TPartial is the length of one partial SET pulse in a P&V
	// staircase; TVerify the read between pulses.
	TPartial units.Duration
	TVerify  units.Duration
	// MinIter and MaxIter bound the per-cell P&V iteration count for the
	// intermediate levels.
	MinIter, MaxIter int
	// Seed perturbs the per-cell variation hash.
	Seed uint64
}

// DefaultParams follows the usual MLC PCM literature: partial pulses a
// quarter of a full SET, a read-time verify, and 4-8 P&V iterations for
// intermediate levels.
func DefaultParams() Params {
	base := pcm.DefaultParams()
	return Params{
		TReset:   base.TReset,
		TSet:     base.TSet,
		TPartial: base.TSet / 4,
		TVerify:  base.TRead,
		MinIter:  4,
		MaxIter:  8,
		Seed:     1,
	}
}

// Validate checks the configuration.
func (p Params) Validate() error {
	switch {
	case p.TReset <= 0 || p.TSet <= 0 || p.TPartial <= 0 || p.TVerify <= 0:
		return fmt.Errorf("mlc: non-positive timing")
	case p.MinIter < 1 || p.MaxIter < p.MinIter:
		return fmt.Errorf("mlc: bad iteration bounds [%d, %d]", p.MinIter, p.MaxIter)
	}
	return nil
}

// Array is a set of 2-bit MLC cells.
type Array struct {
	par   Params
	cells []Level
	stats Stats
}

// Stats counts programming activity.
type Stats struct {
	CellWrites    int64
	FullPulses    int64 // full RESET/SET pulses
	PartialPulses int64
	Verifies      int64
	Time          units.Duration // cumulative programming time (serialized)
}

// NewArray creates an array of n cells, all at level 0.
func NewArray(par Params, n int) (*Array, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("mlc: array of %d cells", n)
	}
	return &Array{par: par, cells: make([]Level, n)}, nil
}

// Read returns a cell's level.
func (a *Array) Read(i int) Level { return a.cells[i] }

// Stats returns the counters.
func (a *Array) Stats() Stats { return a.stats }

// iterations returns the deterministic P&V iteration count for driving
// cell i to an intermediate level: a hash of the cell address, target
// level and seed standing in for process variation, so simulations
// replay identically.
func (a *Array) iterations(i int, target Level) int {
	p := a.par
	h := uint64(i)*0x9E3779B97F4A7C15 ^ uint64(target)*0xBF58476D1CE4E5B9 ^ p.Seed
	h ^= h >> 31
	h *= 0x94D049BB133111EB
	h ^= h >> 29
	span := uint64(p.MaxIter - p.MinIter + 1)
	return p.MinIter + int(h%span)
}

// Write programs cell i to the target level and returns the time the
// operation took. Levels 0 and 3 take one full pulse; levels 1 and 2
// take a RESET to a known state followed by a P&V staircase of partial
// SET pulses with verify reads.
func (a *Array) Write(i int, target Level) (units.Duration, error) {
	if target > 3 {
		return 0, fmt.Errorf("mlc: level %d out of range", target)
	}
	if i < 0 || i >= len(a.cells) {
		return 0, fmt.Errorf("mlc: cell %d out of range", i)
	}
	a.stats.CellWrites++
	var t units.Duration
	switch target {
	case 0:
		t = a.par.TReset
		a.stats.FullPulses++
	case 3:
		t = a.par.TSet
		a.stats.FullPulses++
	default:
		// RESET to the amorphous anchor, then staircase upward.
		t = a.par.TReset
		a.stats.FullPulses++
		n := a.iterations(i, target)
		for j := 0; j < n; j++ {
			t += a.par.TPartial + a.par.TVerify
			a.stats.PartialPulses++
			a.stats.Verifies++
		}
	}
	a.cells[i] = target
	a.stats.Time += t
	return t, nil
}

// WritePair stores two logical bits (00..11) in one cell.
func (a *Array) WritePair(i int, hi, lo bool) (units.Duration, error) {
	var lvl Level
	if hi {
		lvl |= 2
	}
	if lo {
		lvl |= 1
	}
	return a.Write(i, lvl)
}

// Comparison is the outcome of an SLC-vs-MLC storage experiment.
type Comparison struct {
	Bits        int
	SLCTime     units.Duration // worst-case serialized SLC cell writes
	MLCTime     units.Duration
	SLCCells    int
	MLCCells    int
	MLCPartial  int64
	MLCVerifies int64
}

// CompareSLC writes the given bit pattern once as SLC (one bit per cell,
// each cell one full pulse, serialized) and once as MLC (two bits per
// cell with P&V), returning the serialized programming times. It is the
// quantitative form of the paper's "SLC for its better write
// performance".
func CompareSLC(par Params, bits []bool) (Comparison, error) {
	cmp := Comparison{Bits: len(bits), SLCCells: len(bits), MLCCells: (len(bits) + 1) / 2}
	// SLC: one full pulse per cell, RESET for 0, SET for 1.
	for _, b := range bits {
		if b {
			cmp.SLCTime += par.TSet
		} else {
			cmp.SLCTime += par.TReset
		}
	}
	arr, err := NewArray(par, cmp.MLCCells)
	if err != nil {
		return Comparison{}, err
	}
	for i := 0; i < len(bits); i += 2 {
		hi := bits[i]
		lo := i+1 < len(bits) && bits[i+1]
		t, err := arr.WritePair(i/2, hi, lo)
		if err != nil {
			return Comparison{}, err
		}
		cmp.MLCTime += t
	}
	st := arr.Stats()
	cmp.MLCPartial = st.PartialPulses
	cmp.MLCVerifies = st.Verifies
	return cmp, nil
}
