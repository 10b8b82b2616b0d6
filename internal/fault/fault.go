// Package fault is the deterministic cell-failure substrate of the
// simulator: a seeded injector that models PCM wear-out (cells die after
// a bounded number of programming pulses and become stuck at their last
// value) and transient write failures (a pulse occasionally fails to
// crystallize/amorphize the cell and must be re-driven), plus the
// spare-region line remapper that gives the platform graceful
// degradation once cells fail for good.
//
// Every decision the injector makes — each cell's endurance limit, its
// stuck-at polarity, whether a given pulse fails transiently — is a pure
// function of (seed, line, cell, pulse count), so two runs with the same
// seed and the same write stream fail identically, regardless of
// goroutine scheduling or map iteration order. That determinism is what
// makes fault-tolerance experiments reproducible and lets the test suite
// assert exact retry and remap counts.
//
// The injector keeps its own per-cell pulse ledger rather than reusing
// pcm.WearTracker: the tracker aggregates per line (the reporting
// granularity of endurance experiments), while wear-out is decided per
// cell — the paper's process-variation reality is that individual cells,
// not lines, have limits.
package fault

import (
	"fmt"
	"math"

	"tetriswrite/internal/pcm"
)

// Config parameterizes the injector. The zero value disables every
// failure mode (an ideal device); Enabled reports whether any is active.
type Config struct {
	// Seed drives every pseudo-random decision. Runs with equal seeds and
	// equal write streams fail identically.
	Seed int64
	// Endurance is the mean per-cell endurance limit in programming
	// pulses; a cell whose attempted-pulse count exceeds its sampled
	// limit becomes stuck at its current value (stuck-at-SET if it held a
	// 1, stuck-at-RESET if a 0). Zero or negative disables wear-out.
	// Real PCM endures ~10^8 pulses; experiments use small values so
	// failures appear within simulable write counts.
	Endurance int64
	// EnduranceCV is the coefficient of variation of the per-cell limit
	// distribution (Gaussian, mean Endurance, stddev CV*Endurance,
	// clamped to at least one pulse) — the process variation that makes
	// some cells die far earlier than the mean.
	EnduranceCV float64
	// TransientRate is the probability that any single programming pulse
	// fails to change the cell (it keeps its previous value) without
	// permanent damage. Verify-retry catches and re-drives these.
	TransientRate float64
}

// Enabled reports whether any failure mode is configured.
func (c Config) Enabled() bool { return c.Endurance > 0 || c.TransientRate > 0 }

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.EnduranceCV < 0:
		return fmt.Errorf("fault: EnduranceCV %g must be non-negative", c.EnduranceCV)
	case c.TransientRate < 0 || c.TransientRate >= 1:
		return fmt.Errorf("fault: TransientRate %g must be in [0, 1)", c.TransientRate)
	case c.EnduranceCV > 0 && c.Endurance <= 0:
		return fmt.Errorf("fault: EnduranceCV set without Endurance")
	}
	return nil
}

// Stats counts injector activity since construction.
type Stats struct {
	PulsesAttempted   int64 // programming pulses that reached the array
	TransientFailures int64 // pulses that failed without permanent damage
	StuckCells        int64 // cells permanently stuck (wear-out)
	StuckPulses       int64 // pulses wasted on already-stuck cells
}

// Injector implements pcm.FaultModel: it sits under the device's write
// and read paths, records per-cell wear, and decides which pulses land.
// An injector belongs to one device, and so to the one engine goroutine
// that drives it; it takes no locks (parallel sweeps build one injector
// per device). Read its state from that goroutine or after the run has
// returned.
type Injector struct {
	cfg Config

	wear  map[pcm.LineAddr][]uint32     // attempted pulses per cell
	stuck map[pcm.LineAddr]map[int]byte // cell index -> stuck value (0 or 1)
	stats Stats
}

// New builds an injector; the configuration must validate.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		cfg:   cfg,
		wear:  make(map[pcm.LineAddr][]uint32),
		stuck: make(map[pcm.LineAddr]map[int]byte),
	}, nil
}

// MustNew is New for known-good configurations, panicking on error.
func MustNew(cfg Config) *Injector {
	in, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return in
}

// Config returns the injector configuration.
func (in *Injector) Config() Config { return in.cfg }

// Stats returns a snapshot of the counters.
func (in *Injector) Stats() Stats {
	return in.stats
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed hash used
// to derive every per-cell random decision from the seed.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// hash derives a 64-bit value from (seed, line, cell, salt).
func (in *Injector) hash(addr pcm.LineAddr, cell int, salt uint64) uint64 {
	h := mix64(uint64(in.cfg.Seed) ^ 0x6A09E667F3BCC909)
	h = mix64(h ^ uint64(addr))
	h = mix64(h ^ uint64(cell))
	return mix64(h ^ salt)
}

// uniform maps a hash to (0, 1].
func uniform(h uint64) float64 {
	return (float64(h>>11) + 1) / (1 << 53)
}

const (
	saltLimitA = 0x1     // Box-Muller uniform #1 for the endurance limit
	saltLimitB = 0x2     // Box-Muller uniform #2
	saltPulse  = 0x10000 // + wear count: transient decision per pulse
)

// limit returns the cell's endurance limit in pulses: a Gaussian sample
// with mean Endurance and stddev EnduranceCV*Endurance, clamped to at
// least one pulse. Pure in (seed, addr, cell).
func (in *Injector) limit(addr pcm.LineAddr, cell int) int64 {
	mean := float64(in.cfg.Endurance)
	if in.cfg.EnduranceCV > 0 {
		u1 := uniform(in.hash(addr, cell, saltLimitA))
		u2 := uniform(in.hash(addr, cell, saltLimitB))
		z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
		mean *= 1 + in.cfg.EnduranceCV*z
	}
	if mean < 1 {
		return 1
	}
	return int64(mean)
}

// ApplyWrite intercepts one line write: old is the stored image, want the
// image the driver intends to program (mutated in place to what actually
// lands). For every differing bit it records an attempted pulse, then
// fails the pulse if the cell is (or just became) stuck, or if the
// transient draw fails.
func (in *Injector) ApplyWrite(addr pcm.LineAddr, old, want []byte) {
	var wear []uint32
	stuckLine := in.stuck[addr]
	for i := range want {
		diff := old[i] ^ want[i]
		if diff == 0 {
			continue
		}
		if wear == nil {
			wear = in.wear[addr]
			if wear == nil {
				wear = make([]uint32, len(want)*8)
				in.wear[addr] = wear
			}
		}
		for b := 0; b < 8; b++ {
			if diff&(1<<b) == 0 {
				continue
			}
			cell := i*8 + b
			oldBit := old[i] >> b & 1
			in.stats.PulsesAttempted++
			if sv, isStuck := stuckLine[cell]; isStuck {
				// The driver pulses a dead cell: nothing changes.
				in.stats.StuckPulses++
				want[i] = want[i]&^(1<<b) | sv<<b
				continue
			}
			wear[cell]++
			if in.cfg.Endurance > 0 && int64(wear[cell]) > in.limit(addr, cell) {
				// Wear-out: the cell can no longer switch and is stuck at
				// the value it held before this pulse.
				if stuckLine == nil {
					stuckLine = make(map[int]byte)
					in.stuck[addr] = stuckLine
				}
				stuckLine[cell] = oldBit
				in.stats.StuckCells++
				want[i] = want[i]&^(1<<b) | oldBit<<b
				continue
			}
			if in.cfg.TransientRate > 0 &&
				uniform(in.hash(addr, cell, saltPulse+uint64(wear[cell]))) < in.cfg.TransientRate {
				// Transient failure: the pulse did not take; the cell
				// keeps its previous value and may be re-driven later.
				in.stats.TransientFailures++
				want[i] = want[i]&^(1<<b) | oldBit<<b
			}
		}
	}
}

// ApplyRead forces stuck cells to their stuck values in a read's data.
// Stuck values are also baked into the stored image at failure time, so
// this only matters for paths that bypass the write fault mask (e.g.
// Preload over a worn line).
func (in *Injector) ApplyRead(addr pcm.LineAddr, data []byte) {
	stuckLine := in.stuck[addr]
	if len(stuckLine) == 0 {
		return
	}
	for cell, sv := range stuckLine {
		i, b := cell/8, cell%8
		if i < len(data) {
			data[i] = data[i]&^(1<<b) | sv<<b
		}
	}
}

// CellWear returns the attempted-pulse count of one cell, for tests.
func (in *Injector) CellWear(addr pcm.LineAddr, cell int) int64 {
	w := in.wear[addr]
	if cell >= len(w) {
		return 0
	}
	return int64(w[cell])
}

// StuckAt reports whether a cell is stuck and at which value.
func (in *Injector) StuckAt(addr pcm.LineAddr, cell int) (value byte, stuck bool) {
	sv, ok := in.stuck[addr][cell]
	return sv, ok
}
