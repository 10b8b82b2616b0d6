package stats

import (
	"fmt"
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
		v := units.Duration(math.Exp(rng.NormFloat64()) * 100)
		samples = append(samples, float64(v))
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

// A copied Latency is a snapshot: samples recorded by the live copy
// afterwards do not reach it. (Controller.Stats hands out such copies.)
func TestLatencyCopyIsIndependent(t *testing.T) {
	var live Latency
	live.Add(1000)
	snap := live
	wantP100 := snap.Percentile(100)
	for i := 0; i < 100; i++ {
		live.Add(1)
	}
	if got := snap.Percentile(100); got != wantP100 {
		t.Errorf("snapshot P100 moved from %v to %v after the live copy recorded samples", wantP100, got)
	}
	if got := snap.Percentile(50); got != wantP100 {
		t.Errorf("snapshot P50 = %v, want %v", got, wantP100)
	}
	if live.Percentile(50) == wantP100 {
		t.Error("live copy did not record its own samples")
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

// TestLatencyAddZeroAllocs: recording a sample and reading a percentile
// allocate nothing.
func TestLatencyAddZeroAllocs(t *testing.T) {
	var l Latency
	d := units.Duration(1)
	if n := testing.AllocsPerRun(1000, func() {
		l.Add(d)
		d = d*3 + 7
		if d < 0 {
			d = 0
		}
	}); n != 0 {
		t.Errorf("Latency.Add: %v allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = l.Percentile(99) }); n != 0 {
		t.Errorf("Latency.Percentile: %v allocs per call, want 0", n)
	}
}

// checkBucket fails unless the dense index of d is bucketOf's bucket.
func checkBucket(t *testing.T, d int64) {
	t.Helper()
	if d < 1 {
		return
	}
	if got, want := countsIndex(units.Duration(d))-1, bucketOf(float64(d)); got != want {
		t.Fatalf("bucket of %d = %d, bucketOf says %d", d, got, want)
	}
}

// TestLatencyBucketBoundaries checks the dense index against bucketOf at
// and ±1 around every bucket start and every power of two (where the
// table lookup switches bit length), and at the ends of the range.
func TestLatencyBucketBoundaries(t *testing.T) {
	for b := 1; b < numBuckets; b++ {
		s := int64(bucketStart[b])
		if bucketOf(float64(s)) < b || bucketOf(float64(s-1)) >= b {
			t.Fatalf("bucket %d starts at %d, but bucketOf(%d) = %d and bucketOf(%d) = %d",
				b, s, s-1, bucketOf(float64(s-1)), s, bucketOf(float64(s)))
		}
		for _, d := range []int64{s - 1, s, s + 1} {
			checkBucket(t, d)
		}
	}
	for n := 0; n < 63; n++ {
		p := int64(1) << n
		for _, d := range []int64{p - 1, p, p + 1} {
			checkBucket(t, d)
		}
	}
	for _, d := range []int64{1, 2, 3, math.MaxInt64 - 1, math.MaxInt64} {
		checkBucket(t, d)
	}
	if got := countsIndex(0); got != 0 {
		t.Errorf("zero sample at index %d, want the zero bucket", got)
	}
	if got := countsIndex(math.MaxInt64) - 1; got != numBuckets-1 {
		t.Errorf("MaxInt64 in bucket %d, want the last bucket %d", got, numBuckets-1)
	}
}

// FuzzLatencyBucket: for any sample d >= 1 up to MaxInt64, the dense
// index the tables give equals bucketOf(float64(d)).
func FuzzLatencyBucket(f *testing.F) {
	for _, d := range []uint64{1, 2, 9, 10, 11, 999, 1000, 1001, 1 << 53, 1<<53 + 1, math.MaxInt64} {
		f.Add(d)
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		checkBucket(t, int64(u&math.MaxInt64))
	})
}

// TestLatencyBucketRandom sweeps random samples at every scale.
func TestLatencyBucketRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200000; i++ {
		checkBucket(t, rng.Int63()>>uint(rng.Intn(63)))
	}
}

func TestLatencyBuckets(t *testing.T) {
	var l Latency
	for _, d := range []units.Duration{0, 0, 1, 1000, 1000, 1001, math.MaxInt64} {
		l.Add(d)
	}
	type pair struct {
		b int
		n int64
	}
	var got []pair
	l.Buckets(func(b int, n int64) { got = append(got, pair{b, n}) })
	want := []pair{{ZeroBucket, 2}, {0, 1}, {bucketOf(1000), 3}, {numBuckets - 1, 1}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Buckets = %v, want %v", got, want)
	}
}
