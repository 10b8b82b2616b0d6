// Package stats provides the measurement primitives of the simulators:
// streaming latency accumulators, log-scale histograms with percentile
// estimates, and plain-text table rendering for the experiment harness.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"tetriswrite/internal/units"
)

// Latency accumulates a stream of durations. It is not safe for
// concurrent use: it has one writer, the goroutine of the simulation
// that owns it (see the package doc).
type Latency struct {
	count    int64
	sum      float64 // in picoseconds
	min, max units.Duration
	hist     Histogram
}

// Add records one sample.
func (l *Latency) Add(d units.Duration) {
	if l.count == 0 || d < l.min {
		l.min = d
	}
	if d > l.max {
		l.max = d
	}
	l.count++
	l.sum += float64(d)
	l.hist.Add(float64(d))
}

// Count returns the number of samples.
func (l *Latency) Count() int64 {
	return l.count
}

// Mean returns the average sample, or 0 with no samples.
func (l *Latency) Mean() units.Duration {
	if l.count == 0 {
		return 0
	}
	return units.Duration(l.sum / float64(l.count))
}

// Min returns the smallest sample, or 0 with no samples.
func (l *Latency) Min() units.Duration {
	return l.min
}

// Max returns the largest sample.
func (l *Latency) Max() units.Duration {
	return l.max
}

// Percentile estimates the p-th percentile (0 < p <= 100) from the
// log-scale histogram; the estimate is exact to within the bucket
// resolution (~7% with the default 10-buckets-per-decade layout).
func (l *Latency) Percentile(p float64) units.Duration {
	return units.Duration(l.hist.Percentile(p))
}

// Histogram is a log-scale histogram for non-negative values: buckets
// are powers of 10^(1/bucketsPerDecade), covering the full positive
// float range; a dedicated bucket holds zeros.
type Histogram struct {
	zero    int64
	buckets map[int]int64
	total   int64
}

const bucketsPerDecade = 10

func bucketOf(v float64) int {
	return int(math.Floor(math.Log10(v) * bucketsPerDecade))
}

func bucketUpper(b int) float64 {
	return math.Pow(10, float64(b+1)/bucketsPerDecade)
}

// Add records a sample. Negative samples panic: every metric in this
// repository is a non-negative quantity, so a negative one is a bug.
func (h *Histogram) Add(v float64) {
	if v < 0 {
		panic("stats: negative histogram sample")
	}
	if h.buckets == nil {
		h.buckets = make(map[int]int64)
	}
	h.total++
	if v == 0 {
		h.zero++
		return
	}
	h.buckets[bucketOf(v)]++
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.total }

// Percentile estimates the p-th percentile (0 < p <= 100).
//
// Edge cases, all deliberate:
//   - an empty histogram returns 0 (there is no data to estimate from);
//   - a histogram whose samples are all zero returns 0 for every p (the
//     zero bucket covers any target rank);
//   - p <= 0 is treated as "just above 0" and p > 100 as 100, so callers
//     never get an out-of-range rank.
func (h *Histogram) Percentile(p float64) float64 {
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		p = math.SmallestNonzeroFloat64
	}
	if p > 100 {
		p = 100
	}
	target := int64(math.Ceil(p / 100 * float64(h.total)))
	if target <= h.zero {
		return 0
	}
	run := h.zero
	keys := make([]int, 0, len(h.buckets))
	for k := range h.buckets {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		// Unreachable when the counters are consistent (total > zero
		// implies a non-empty bucket), but a merged-in inconsistent
		// histogram should degrade to 0, not panic.
		return 0
	}
	sort.Ints(keys)
	for _, k := range keys {
		run += h.buckets[k]
		if run >= target {
			return bucketUpper(k)
		}
	}
	return bucketUpper(keys[len(keys)-1])
}

// Merge folds other's samples into h, exactly: both histograms share the
// fixed bucket layout, so the merged percentiles equal those of a
// histogram fed both streams. Merging nil, an empty histogram, or h into
// itself is a no-op. This is the aggregation path of sharded runs: each
// worker fills a private histogram, the harness merges them.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other == h || other.total == 0 {
		return
	}
	if h.buckets == nil {
		h.buckets = make(map[int]int64)
	}
	h.zero += other.zero
	h.total += other.total
	for k, v := range other.buckets {
		h.buckets[k] += v
	}
}

// Clone returns an independent copy of the histogram. (A plain struct
// copy shares the bucket map; Clone is what snapshot paths need.)
func (h *Histogram) Clone() Histogram {
	c := Histogram{zero: h.zero, total: h.total}
	if h.buckets != nil {
		c.buckets = make(map[int]int64, len(h.buckets))
		for k, v := range h.buckets {
			c.buckets[k] = v
		}
	}
	return c
}

// Table renders rows of labelled numeric series as aligned plain text —
// the output format of every figure the harness regenerates.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells are formatted with %v, and float64 cells
// with three decimals.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case units.Duration:
			row[i] = fmt.Sprintf("%.1fns", v.Nanoseconds())
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	width := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		width[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", width[i])
	}
	writeRow(rule)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of positive xs, or 0 if any sample
// is non-positive or the slice is empty. Normalized-performance figures
// conventionally average geometrically.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// CSV renders the table as comma-separated values (header + rows), for
// spreadsheet import and external plotting.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeCSVRow(t.Columns)
	for _, row := range t.rows {
		writeCSVRow(row)
	}
	return b.String()
}
