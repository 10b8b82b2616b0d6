package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tetriswrite/internal/sim"
	"tetriswrite/internal/units"
)

func TestRegistryKindsAndOrder(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("a.count", "help a")
	g := reg.Gauge("b.gauge", "help b")
	reg.GaugeFunc("c.fn", "", func() float64 { return 7.5 })

	c.Add(3)
	c.Inc()
	g.Set(-2.5)

	ms := reg.Metrics()
	if len(ms) != 3 {
		t.Fatalf("Metrics() = %d, want 3", len(ms))
	}
	wantNames := []string{"a.count", "b.gauge", "c.fn"}
	for i, m := range ms {
		if m.Name != wantNames[i] {
			t.Errorf("metric %d = %q, want %q (registration order)", i, m.Name, wantNames[i])
		}
	}
	if v := reg.Get("a.count").Value(); v != 4 {
		t.Errorf("counter value = %v, want 4", v)
	}
	if v := reg.Get("b.gauge").Value(); v != -2.5 {
		t.Errorf("gauge value = %v, want -2.5", v)
	}
	if v := reg.Get("c.fn").Value(); v != 7.5 {
		t.Errorf("func gauge value = %v, want 7.5", v)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	reg.Gauge("x", "")
}

func TestMetricValueClampsNaN(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("nan", "", func() float64 { return 0.0 / div })
	if v := reg.Get("nan").Value(); v != 0 {
		t.Errorf("NaN clamped to %v, want 0", v)
	}
}

var div float64 // 0, defeats constant folding of 0/0

func TestCounterGaugeConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c", "")
	g := reg.Gauge("g", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Set(float64(j))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", c.Value())
	}
}

// A sampler snapshots at exact epoch boundaries, stops by itself when
// the simulation drains, and leaves the engine able to terminate.
func TestSamplerEpochs(t *testing.T) {
	eng := &sim.Engine{}
	reg := NewRegistry()
	c := reg.Counter("work.done", "")
	depth := 0
	reg.GaugeFunc("work.depth", "", func() float64 { return float64(depth) })

	// Simulated workload: an event every 3 us for 30 us.
	for i := 1; i <= 10; i++ {
		i := i
		eng.At(units.Time(i)*units.Time(3*units.Microsecond), func() {
			c.Inc()
			depth = i
		})
	}
	s := NewSampler(eng, reg, 10*units.Microsecond, 0)
	s.Start()
	eng.Run() // must terminate despite the self-rescheduling sampler

	times := s.Times()
	if len(times) < 3 {
		t.Fatalf("epochs = %d, want >= 3 (30us workload, 10us epoch)", len(times))
	}
	for i, at := range times {
		if want := units.Time(i+1) * units.Time(10*units.Microsecond); at != want {
			t.Errorf("epoch %d at %v, want %v", i, at, want)
		}
	}
	done := s.Series("work.done")
	if got := done[len(done)-1]; got != 10 {
		t.Errorf("final work.done = %v, want 10", got)
	}
	// Counter series is monotonic.
	for i := 1; i < len(done); i++ {
		if done[i] < done[i-1] {
			t.Errorf("counter series decreased at %d: %v", i, done)
		}
	}
	if s.Series("work.depth") == nil {
		t.Error("gauge series missing")
	}
	if s.Series("no.such") != nil {
		t.Error("unknown series not nil")
	}
}

// The sampler must not perturb the simulation: event times and counts of
// the underlying workload replay identically with and without sampling.
func TestSamplerIsPassive(t *testing.T) {
	run := func(sample bool) []units.Time {
		eng := &sim.Engine{}
		var trace []units.Time
		var step func(n int)
		step = func(n int) {
			trace = append(trace, eng.Now())
			if n < 20 {
				eng.After(units.Duration(n+1)*units.Microsecond, func() { step(n + 1) })
			}
		}
		eng.At(0, func() { step(0) })
		if sample {
			s := NewSampler(eng, NewRegistry(), 7*units.Microsecond, 0)
			s.Start()
		}
		eng.Run()
		return trace
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("workload event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("workload timing diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSamplerRingEviction(t *testing.T) {
	eng := &sim.Engine{}
	reg := NewRegistry()
	reg.GaugeFunc("t", "", func() float64 { return float64(eng.Now()) })
	// Keep the engine busy for 100 epochs with a ring of 16.
	for i := 1; i <= 100; i++ {
		eng.At(units.Time(i)*units.Time(units.Microsecond), func() {})
	}
	s := NewSampler(eng, reg, units.Microsecond, 16)
	s.Start()
	eng.Run()
	if s.Epochs() != 16 {
		t.Errorf("retained %d epochs, want 16", s.Epochs())
	}
	if s.Dropped() == 0 {
		t.Error("no epochs dropped despite overflow")
	}
	if s.FirstEpoch() != s.Dropped() {
		t.Errorf("FirstEpoch %d != Dropped %d", s.FirstEpoch(), s.Dropped())
	}
	// Retained epochs are the most recent ones, contiguous.
	times := s.Times()
	for i := 1; i < len(times); i++ {
		if times[i]-times[i-1] != units.Time(units.Microsecond) {
			t.Fatalf("retained times not contiguous: %v", times)
		}
	}
}

func TestExportFormats(t *testing.T) {
	eng := &sim.Engine{}
	reg := NewRegistry()
	c := reg.Counter("layer.ops", "operations")
	g := reg.Gauge("layer.lat", "latency")
	for i := 1; i <= 5; i++ {
		eng.At(units.Time(i)*units.Time(units.Microsecond), func() {
			c.Inc()
			g.Set(100)
		})
	}
	s := NewSampler(eng, reg, 2*units.Microsecond, 0)
	s.Start()
	eng.Run()

	// CSV.
	var csv bytes.Buffer
	if err := s.WriteSeriesCSV(&csv, "layer.ops"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if lines[0] != "epoch,time_ps,value" {
		t.Errorf("CSV header = %q", lines[0])
	}
	if len(lines) != 1+s.Epochs() {
		t.Errorf("CSV rows = %d, want %d", len(lines)-1, s.Epochs())
	}

	// JSON-lines: every record parses, keys are the metric set.
	var jl bytes.Buffer
	if err := s.WriteJSONLines(&jl); err != nil {
		t.Fatal(err)
	}
	recs := strings.Split(strings.TrimSpace(jl.String()), "\n")
	if len(recs) != s.Epochs() {
		t.Fatalf("JSONL records = %d, want %d", len(recs), s.Epochs())
	}
	var rec EpochRecord
	if err := json.Unmarshal([]byte(recs[0]), &rec); err != nil {
		t.Fatalf("JSONL record does not parse: %v", err)
	}
	if _, ok := rec.Metrics["layer.ops"]; !ok {
		t.Errorf("JSONL record missing layer.ops: %v", rec.Metrics)
	}

	// Prometheus exposition.
	var prom bytes.Buffer
	if err := WritePrometheus(&prom, reg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE layer_ops counter", "layer_ops 5",
		"# TYPE layer_lat gauge", "layer_lat 100",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("Prometheus output missing %q:\n%s", want, prom.String())
		}
	}

	// ExportDir writes the full artifact set.
	dir := t.TempDir()
	if err := s.ExportDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"layer_ops.csv", "layer_lat.csv", JSONLinesFile, PrometheusFile} {
		st, err := os.Stat(filepath.Join(dir, f))
		if err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("artifact %s is empty", f)
		}
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"cpu.ipc":            "cpu_ipc",
		"cache.L1.miss_rate": "cache_L1_miss_rate",
		"a-b/c d!":           "a_b_cd",
	}
	for in, want := range cases {
		if got := sanitizeName(in); got != want {
			t.Errorf("sanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}
