package stats

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"tetriswrite/internal/units"
)

func TestLatencyBasic(t *testing.T) {
	var l Latency
	if l.Mean() != 0 || l.Count() != 0 {
		t.Error("zero-value latency not empty")
	}
	l.Add(10 * units.Nanosecond)
	l.Add(20 * units.Nanosecond)
	l.Add(30 * units.Nanosecond)
	if l.Count() != 3 {
		t.Errorf("Count = %d", l.Count())
	}
	if l.Mean() != 20*units.Nanosecond {
		t.Errorf("Mean = %v, want 20ns", l.Mean())
	}
	if l.Min() != 10*units.Nanosecond || l.Max() != 30*units.Nanosecond {
		t.Errorf("Min/Max = %v/%v", l.Min(), l.Max())
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	var samples []float64
	for i := 0; i < 10000; i++ {
		v := math.Exp(rng.NormFloat64()) * 100
		samples = append(samples, v)
		h.Add(v)
	}
	// Compare against exact percentiles with a tolerance of one bucket
	// (10^(1/10) ~ 26%).
	exact := func(p float64) float64 {
		s := append([]float64(nil), samples...)
		for i := range s {
			for j := i + 1; j < len(s); j++ {
				if s[j] < s[i] {
					s[i], s[j] = s[j], s[i]
				}
			}
			if float64(i+1)/float64(len(s))*100 >= p {
				return s[i]
			}
		}
		return s[len(s)-1]
	}
	for _, p := range []float64{50, 90, 99} {
		got := h.Percentile(p)
		want := exact(p)
		if got < want/1.3 || got > want*1.3 {
			t.Errorf("P%v = %v, exact %v (off by more than a bucket)", p, got, want)
		}
	}
}

func TestHistogramZeros(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Add(0)
	}
	for i := 0; i < 10; i++ {
		h.Add(1000)
	}
	if got := h.Percentile(50); got != 0 {
		t.Errorf("P50 = %v, want 0 (90%% zeros)", got)
	}
	if got := h.Percentile(99); got < 1000 {
		t.Errorf("P99 = %v, want >= 1000", got)
	}
}

func TestHistogramNegativePanics(t *testing.T) {
	var h Histogram
	defer func() {
		if recover() == nil {
			t.Error("negative sample did not panic")
		}
	}()
	h.Add(-1)
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Percentile(50) != 0 {
		t.Error("empty histogram percentile not 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Figure X", "workload", "value")
	tb.AddRow("blackscholes", 1.23456)
	tb.AddRow("vips", 42)
	tb.AddRow("x", 50*units.Nanosecond)
	out := tb.String()
	for _, want := range []string{"== Figure X ==", "workload", "blackscholes", "1.235", "42", "50.0ns"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, header, rule, 3 rows
		t.Errorf("table has %d lines, want 6:\n%s", len(lines), out)
	}
}

func TestMeans(t *testing.T) {
	if Mean(nil) != 0 || GeoMean(nil) != 0 {
		t.Error("empty means not 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := GeoMean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("GeoMean = %v, want 10", got)
	}
	if GeoMean([]float64{1, 0}) != 0 {
		t.Error("GeoMean with zero sample should be 0 sentinel")
	}
}

func TestBarChart(t *testing.T) {
	b := NewBarChart("demo", "a", "bb")
	b.AddGroup("g1", 1.0, 2.0)
	b.AddGroup("g2", 0.0, 4.0)
	out := b.String()
	for _, want := range []string{"== demo ==", "g1", "g2", "a ", "bb"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// Bars scale to the max (4.0 -> 40 chars; 2.0 -> 20; 1.0 -> 10).
	if !strings.Contains(out, strings.Repeat("#", 40)) {
		t.Error("max bar not full width")
	}
	if strings.Contains(out, strings.Repeat("#", 41)) {
		t.Error("bar exceeds width")
	}
	lines := strings.Split(out, "\n")
	for _, l := range lines {
		if strings.Contains(l, " 0.000 ") && strings.Contains(l, "#") {
			t.Error("zero value drew a bar")
		}
	}
}

func TestBarChartPanicsOnArityMismatch(t *testing.T) {
	b := NewBarChart("x", "a")
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch did not panic")
		}
	}()
	b.AddGroup("g", 1, 2)
}

func TestFromTable(t *testing.T) {
	tb := NewTable("fig", "workload", "s1", "s2")
	tb.AddRow("w1", 1.5, 2.5)
	tb.AddRow("w2", 3.0, 4.0)
	tb.AddRow("note", "text", "cells") // skipped: non-numeric
	b := FromTable(tb)
	out := b.String()
	if !strings.Contains(out, "w1") || !strings.Contains(out, "w2") {
		t.Errorf("groups missing:\n%s", out)
	}
	if strings.Contains(out, "note") {
		t.Error("non-numeric row charted")
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.AddRow("plain", 1.5)
	tb.AddRow("with,comma", "quo\"te")
	out := tb.CSV()
	want := "a,b\nplain,1.500\n\"with,comma\",\"quo\"\"te\"\n"
	if out != want {
		t.Errorf("CSV = %q, want %q", out, want)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 50; i++ {
		a.Add(float64(i))
	}
	for i := 0; i < 30; i++ {
		b.Add(0)
	}
	b.Add(5e6)

	var whole Histogram
	for i := 0; i < 50; i++ {
		whole.Add(float64(i))
	}
	for i := 0; i < 30; i++ {
		whole.Add(0)
	}
	whole.Add(5e6)

	a.Merge(&b)
	if a.Count() != whole.Count() {
		t.Fatalf("merged count %d, want %d", a.Count(), whole.Count())
	}
	for _, p := range []float64{1, 25, 50, 75, 99, 100} {
		if got, want := a.Percentile(p), whole.Percentile(p); got != want {
			t.Errorf("P%v = %v after merge, want %v", p, got, want)
		}
	}
}

func TestHistogramMergeEdgeCases(t *testing.T) {
	var a Histogram
	a.Add(3)
	before := a.Count()

	a.Merge(nil) // nil is a no-op
	a.Merge(&a)  // self-merge is a no-op, not a doubling
	var empty Histogram
	a.Merge(&empty) // empty is a no-op
	if a.Count() != before {
		t.Errorf("count %d after no-op merges, want %d", a.Count(), before)
	}

	// Merging into an empty histogram copies, and the copy is
	// independent of the source afterwards.
	var dst Histogram
	dst.Merge(&a)
	if dst.Count() != a.Count() || dst.Percentile(50) != a.Percentile(50) {
		t.Error("merge into empty did not copy")
	}
	dst.Add(1e12)
	if a.Count() == dst.Count() {
		t.Error("source histogram aliased by merge")
	}

	// All-zero histograms merge into all-zero percentiles.
	var z1, z2 Histogram
	z1.Add(0)
	z2.Add(0)
	z1.Merge(&z2)
	if z1.Count() != 2 || z1.Percentile(100) != 0 {
		t.Errorf("all-zero merge: count=%d P100=%v", z1.Count(), z1.Percentile(100))
	}
}

func TestHistogramPercentileClamping(t *testing.T) {
	var h Histogram
	h.Add(1000)
	if h.Percentile(-5) != h.Percentile(0) {
		t.Error("p < 0 not clamped to 0")
	}
	if h.Percentile(200) != h.Percentile(100) {
		t.Error("p > 100 not clamped to 100")
	}
}

func TestHistogramClone(t *testing.T) {
	var h Histogram
	h.Add(1000)
	c := h.Clone()
	c.Add(1e12)
	if h.Count() != 1 || c.Count() != 2 {
		t.Errorf("clone not independent: src=%d clone=%d", h.Count(), c.Count())
	}
	var empty Histogram
	if e := empty.Clone(); e.Count() != 0 {
		t.Error("cloning an empty histogram is not empty")
	}
}

// Latency takes no locks: each goroutine of a parallel sweep owns its
// accumulators. -race checks that Latency values on different goroutines
// share no state, and each accumulator sees only its own samples.
func TestLatencyConcurrent(t *testing.T) {
	const workers, perWorker = 8, 1000
	ls := make([]Latency, workers)
	var wg sync.WaitGroup
	for w := range ls {
		wg.Add(1)
		go func(l *Latency, d units.Duration) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				l.Add(d)
			}
		}(&ls[w], units.Duration(w+1)*units.Microsecond)
	}
	wg.Wait()
	for w := range ls {
		if got := ls[w].Count(); got != perWorker {
			t.Errorf("accumulator %d: count = %d, want %d", w, got, perWorker)
		}
		if want := units.Duration(w+1) * units.Microsecond; ls[w].Mean() != want {
			t.Errorf("accumulator %d: mean = %v, want %v", w, ls[w].Mean(), want)
		}
	}
}

func BenchmarkLatencyAdd(b *testing.B) {
	var l Latency
	for i := 0; i < b.N; i++ {
		l.Add(units.Duration(i))
	}
}

func BenchmarkHistogramAdd(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Add(float64(i % 100000))
	}
}
