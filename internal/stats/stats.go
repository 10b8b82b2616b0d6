// Package stats provides the measurement primitives of the simulators:
// streaming latency accumulators, log-scale histograms with percentile
// estimates, and plain-text table rendering for the experiment harness.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
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
	l.hist.Add(d)
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

// Sum returns the sum of the samples in picoseconds, as accumulated.
func (l *Latency) Sum() float64 {
	return l.sum
}

// ZeroBucket is the bucket index Buckets reports zero samples under. No
// positive Duration falls in it: the smallest, 1 ps, is in bucket 0.
const ZeroBucket = -1

// Buckets calls fn for each non-empty histogram bucket in ascending
// bucket order, zero samples first under ZeroBucket. A positive sample
// v is in bucket floor(10*log10(v)).
func (l *Latency) Buckets(fn func(bucket int, count int64)) {
	for i, n := range l.hist.counts {
		if n > 0 {
			fn(i-1, n)
		}
	}
}

// Histogram is a log-scale histogram of non-negative Durations: buckets
// are powers of 10^(1/bucketsPerDecade), and a dedicated bucket holds
// zeros. The counts live in a fixed array, so a copied Histogram is an
// independent snapshot and Add never allocates.
type Histogram struct {
	total int64
	// counts[0] holds zero samples and counts[b+1] bucket b, for the
	// buckets 0..numBuckets-1 that positive Durations reach.
	counts [numBuckets + 1]int64
}

const (
	bucketsPerDecade = 10
	// numBuckets is the number of buckets positive Durations reach:
	// bucket 0 starts at 1 ps and MaxInt64 (10^18.96 ps) is in bucket
	// 189.
	numBuckets = 190
)

// bucketOf is the bucket of a positive value. It defines the layout;
// Add finds the same bucket through the tables below.
func bucketOf(v float64) int {
	return int(math.Floor(math.Log10(v) * bucketsPerDecade))
}

func bucketUpper(b int) float64 {
	return math.Pow(10, float64(b+1)/bucketsPerDecade)
}

// The tables give a sample's counts index without a logarithm: start at
// the index of the smallest value with the sample's bit length and step
// past every bucket start the sample reaches. A doubling spans
// log10(2)*10 ~ 3 buckets, so that takes at most four compares.
var (
	// bucketStart[i] is the smallest sample of counts index i+1; the
	// last entry is a sentinel no Duration reaches.
	bucketStart [numBuckets + 1]uint64
	// firstIndex[n] is the counts index of 2^(n-1), the smallest sample
	// with bit length n (index 0, zero, for n = 0). It has an entry for
	// every bits.Len64 result, so the lookup needs no bounds check.
	firstIndex [65]uint8
)

func init() {
	bucketStart[0] = 1
	for b := 1; b < numBuckets; b++ {
		bucketStart[b] = firstInBucket(b)
	}
	bucketStart[numBuckets] = math.MaxUint64
	i := 0
	for n := 1; n < 64; n++ {
		v := uint64(1) << (n - 1)
		for v >= bucketStart[i] {
			i++
		}
		firstIndex[n] = uint8(i)
	}
}

// firstInBucket returns the smallest Duration d with bucketOf(float64(d))
// >= b, by bisection over the samples themselves: the index Add computes
// therefore equals bucketOf of the sample wherever bucketOf is monotone
// in the sample, which FuzzLatencyBucket and TestLatencyBucketBoundaries
// check.
func firstInBucket(b int) uint64 {
	lo, hi := uint64(1), uint64(math.MaxInt64) // bucketOf(lo) < b <= bucketOf(hi)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if bucketOf(float64(mid)) >= b {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// countsIndex returns the counts index of a non-negative sample: 0 for
// zero, bucketOf(float64(d))+1 otherwise.
func countsIndex(d units.Duration) int {
	u := uint64(d)
	i := int(firstIndex[bits.Len64(u)])
	for u >= bucketStart[i] {
		i++
	}
	return i
}

// Add records a sample. Negative samples panic: every duration this
// repository measures is non-negative, so a negative one is a bug.
func (h *Histogram) Add(d units.Duration) {
	if d < 0 {
		panic("stats: negative histogram sample")
	}
	h.total++
	h.counts[countsIndex(d)]++
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.total }

// Percentile estimates the p-th percentile (0 < p <= 100) as the upper
// edge of the bucket holding that rank.
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
	var run int64
	for i, n := range h.counts {
		run += n
		if run < target {
			continue
		}
		if i == 0 {
			return 0
		}
		return bucketUpper(i - 1)
	}
	return 0 // unreachable: the counts sum to total >= target
}

// Table renders rows of labelled numeric series as aligned plain text —
// the output format of every figure the harness regenerates.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
	// values holds, per row, the numeric cells after the label as the
	// table displays them (a float64 at its three printed decimals), so
	// a check on a table's numbers agrees with what it prints.
	values [][]float64
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells are formatted with %v, float64 cells
// with three decimals and durations in nanoseconds with one.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	var values []float64
	for i, c := range cells {
		var num string // the printed number of a numeric cell
		switch v := c.(type) {
		case float64:
			num = fmt.Sprintf("%.3f", v)
			row[i] = num
		case units.Duration:
			num = fmt.Sprintf("%.1f", v.Nanoseconds())
			row[i] = num + "ns"
		case int, int64:
			num = fmt.Sprint(v)
			row[i] = num
		default:
			row[i] = fmt.Sprint(v)
		}
		if i > 0 && num != "" {
			// num was just formatted from a number, so it parses.
			x, _ := strconv.ParseFloat(num, 64)
			values = append(values, x)
		}
	}
	t.rows = append(t.rows, row)
	t.values = append(t.values, values)
}

// Values returns the numeric cells after the label of the first row
// labelled label, as displayed and in column order; nil when no row
// has that label.
func (t *Table) Values(label string) []float64 {
	for i, row := range t.rows {
		if len(row) > 0 && row[0] == label {
			return t.values[i]
		}
	}
	return nil
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
