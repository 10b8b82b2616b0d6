// Package telemetry is the observability substrate of the simulators: a
// registry of named metrics (monotonic counters and gauges, both
// goroutine-safe) plus an epoch sampler that snapshots every registered
// metric on a fixed simulated-time interval into ring-buffered time
// series, and exporters rendering those series as CSV, JSON-lines and
// Prometheus text exposition. The registry and its direct counters and
// gauges take concurrent readers (the fleet broker's HTTP handlers); a
// sampler belongs to the one goroutine that runs its engine.
//
// End-of-run scalars (internal/stats, internal/exp) answer "how did the
// run do on average"; this package answers "what did the pipeline do over
// time" — write-queue drain storms, power-budget utilization, SET/RESET
// mix drift across workload phases. Everything here is strictly passive:
// metrics read simulation state, never mutate it, so an instrumented run
// replays the exact same simulation as an uninstrumented one.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric for exporters (Prometheus TYPE lines) and
// consumers that want to derive rates from counters.
type Kind int

const (
	// KindCounter is a monotonically non-decreasing cumulative count.
	KindCounter Kind = iota
	// KindGauge is an instantaneous value that can go up and down.
	KindGauge
)

// String returns the Prometheus type name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	}
	return "untyped"
}

// Counter is a goroutine-safe monotonic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n, which must be non-negative.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("telemetry: negative counter increment")
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a goroutine-safe instantaneous value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Metric is one registered series: a name, a kind, a help string and a
// way to read the current value.
type Metric struct {
	Name string
	Kind Kind
	Help string

	counter *Counter
	gauge   *Gauge
	fn      func() float64
}

// Value reads the metric's current value. Function-backed metrics are
// evaluated on every call; NaN and infinities are clamped to 0 so every
// exporter stays well-formed.
func (m *Metric) Value() float64 {
	var v float64
	switch {
	case m.counter != nil:
		v = float64(m.counter.Value())
	case m.gauge != nil:
		v = m.gauge.Value()
	case m.fn != nil:
		v = m.fn()
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Registry holds the metrics of one simulation run. The zero value is
// not usable; create registries with NewRegistry. All methods are
// goroutine-safe; registration order is preserved and is the order every
// exporter emits.
type Registry struct {
	mu      sync.Mutex
	metrics []*Metric
	byName  map[string]*Metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Metric)}
}

func (r *Registry) register(m *Metric) {
	if m.Name == "" {
		panic("telemetry: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.Name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", m.Name))
	}
	r.byName[m.Name] = m
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&Metric{Name: name, Kind: KindCounter, Help: help, counter: c})
	return c
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&Metric{Name: name, Kind: KindGauge, Help: help, gauge: g})
	return g
}

// CounterFunc registers a counter whose value is polled from fn at
// sample time — the idiomatic way to expose an existing cumulative
// statistic (controller counters, device pulse counts) without touching
// the hot path that maintains it. fn runs on the sampling goroutine (the
// simulation engine) and must be cheap and side-effect-free.
//
// Closures reading single-writer simulation state (scheme statistics,
// controller counters — plain fields, not atomics, by design) run on
// the engine goroutine that owns that state. The direct Counter/Gauge
// types use single atomic words (no striping) — per-run metric rates
// are far below contention territory, and a torn read would be a
// correctness bug, not just noise.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&Metric{Name: name, Kind: KindCounter, Help: help, fn: fn})
}

// GaugeFunc registers a gauge polled from fn at sample time (queue
// depths, utilizations, rates).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&Metric{Name: name, Kind: KindGauge, Help: help, fn: fn})
}

// Metrics returns the registered metrics in registration order. The
// returned slice is a copy; the *Metric values are shared.
func (r *Registry) Metrics() []*Metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Metric(nil), r.metrics...)
}

// Get returns the named metric, or nil.
func (r *Registry) Get(name string) *Metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byName[name]
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.metrics)
}

// Names returns the sorted metric names — the stable key set of the
// JSON-lines exporter.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}
