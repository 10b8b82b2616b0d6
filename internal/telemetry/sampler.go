package telemetry

import (
	"tetriswrite/internal/sim"
	"tetriswrite/internal/units"
)

// DefaultRingSize is how many epochs a sampler retains when no explicit
// ring size is configured. At the default 10 us epoch that is ~82 ms of
// simulated time — far beyond any experiment in this repository — while
// bounding memory for long production-scale runs.
const DefaultRingSize = 8192

// Sampler snapshots every metric of a registry on a fixed epoch of
// simulated time. It schedules itself on the simulation engine
// (Engine.After), so samples land at exact epoch boundaries interleaved
// deterministically with simulation events; because sampling only reads
// state, the simulated behaviour is identical to an unsampled run.
//
// Lifecycle: the sampler arms its next tick only while the engine has
// other pending events. When a tick finds the queue otherwise empty the
// simulation is over (events are the only source of new events), so the
// sampler records that final snapshot and stops — this is what lets
// Engine.Run terminate with a sampler attached. Stop() force-stops
// earlier.
//
// A Sampler belongs to the goroutine that runs its engine: the engine
// drives the ticks on the caller's goroutine and starts no other, so
// the sampler takes no locks. Read its series from that goroutine, or
// after the run has returned.
type Sampler struct {
	eng   *sim.Engine
	reg   *Registry
	epoch units.Duration
	ring  int

	stopped bool
	names   []string     // metric order captured at Start
	times   []units.Time // sample timestamps, oldest first
	rows    [][]float64  // rows[i] aligns with names
	dropped int          // epochs evicted from the ring
	taken   int          // total epochs ever sampled
}

// NewSampler creates a sampler over reg with the given epoch (> 0) and
// ring capacity (<= 0 selects DefaultRingSize). Register all metrics
// before Start: the sampler pins the metric set at Start time.
func NewSampler(eng *sim.Engine, reg *Registry, epoch units.Duration, ringSize int) *Sampler {
	if epoch <= 0 {
		panic("telemetry: sampler epoch must be positive")
	}
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return &Sampler{eng: eng, reg: reg, epoch: epoch, ring: ringSize}
}

// Registry returns the registry the sampler snapshots.
func (s *Sampler) Registry() *Registry { return s.reg }

// EpochDuration returns the sampling interval.
func (s *Sampler) EpochDuration() units.Duration { return s.epoch }

// Start pins the metric set and schedules the first tick one epoch from
// now. Call once, before running the engine.
func (s *Sampler) Start() {
	for _, m := range s.reg.Metrics() {
		s.names = append(s.names, m.Name)
	}
	s.arm()
}

// Stop prevents any further sampling. Already-recorded epochs remain
// readable.
func (s *Sampler) Stop() { s.stopped = true }

// Stopped reports whether the sampler will take no further samples.
func (s *Sampler) Stopped() bool { return s.stopped }

// Finalize records one last snapshot at time t — the partial epoch in
// progress — and stops the sampler. The run harness calls it when a
// simulation is cancelled or trips the watchdog, so the counters
// accumulated since the last epoch boundary are exported rather than
// lost. If the sampler already stopped (normal completion records its
// own final snapshot) or t does not advance past the last sample,
// Finalize is a no-op beyond stopping.
func (s *Sampler) Finalize(t units.Time) {
	if s.stopped {
		return
	}
	s.stopped = true
	if len(s.times) == 0 || s.times[len(s.times)-1] < t {
		s.sample(t)
	}
}

func (s *Sampler) arm() {
	s.eng.After(s.epoch, s.tick)
}

func (s *Sampler) tick() {
	if s.stopped {
		return
	}
	s.sample(s.eng.Now())

	// Re-arm only while the simulation still has work queued: if this
	// tick was the last event, rescheduling would keep the engine's
	// queue non-empty forever and Run would never return.
	if s.eng.Pending() > 0 {
		s.arm()
	} else {
		s.Stop()
	}
}

// sample records one snapshot row at time t.
func (s *Sampler) sample(t units.Time) {
	metrics := s.reg.Metrics()
	byName := make(map[string]*Metric, len(metrics))
	for _, m := range metrics {
		byName[m.Name] = m
	}
	row := make([]float64, len(s.names))
	for i, name := range s.names {
		if m := byName[name]; m != nil {
			row[i] = m.Value()
		}
	}
	s.times = append(s.times, t)
	s.rows = append(s.rows, row)
	s.taken++
	if len(s.times) > s.ring {
		evict := len(s.times) - s.ring
		s.times = append(s.times[:0:0], s.times[evict:]...)
		s.rows = append(s.rows[:0:0], s.rows[evict:]...)
		s.dropped += evict
	}
}

// Epochs returns the number of retained epochs.
func (s *Sampler) Epochs() int { return len(s.times) }

// Dropped returns how many old epochs the ring evicted.
func (s *Sampler) Dropped() int { return s.dropped }

// FirstEpoch returns the index of the oldest retained epoch (equal to
// Dropped): retained epoch i corresponds to absolute epoch FirstEpoch+i.
func (s *Sampler) FirstEpoch() int { return s.Dropped() }

// Times returns the retained sample timestamps, oldest first.
func (s *Sampler) Times() []units.Time {
	return append([]units.Time(nil), s.times...)
}

// SeriesNames returns the sampled metric names in registration order.
func (s *Sampler) SeriesNames() []string {
	return append([]string(nil), s.names...)
}

// Series returns the retained values of one metric, aligned with
// Times(), or nil if the metric was not sampled.
func (s *Sampler) Series(name string) []float64 {
	col := -1
	for i, n := range s.names {
		if n == name {
			col = i
			break
		}
	}
	if col < 0 {
		return nil
	}
	out := make([]float64, len(s.rows))
	for i, row := range s.rows {
		out[i] = row[col]
	}
	return out
}
