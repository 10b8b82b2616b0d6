package stats

import (
	"fmt"
	"strings"
)

// BarChart renders grouped horizontal bars in plain text — the visual
// companion to the figure tables, used by `tetrisbench -plot`. Each group
// is a label (a workload) with one bar per series (a scheme).
type BarChart struct {
	Title  string
	Series []string
	groups []barGroup
	// Width is the maximum bar length in characters (default 40).
	Width int
}

type barGroup struct {
	label  string
	values []float64
}

// NewBarChart creates a chart with the given series names.
func NewBarChart(title string, series ...string) *BarChart {
	return &BarChart{Title: title, Series: series}
}

// AddGroup appends one labelled group; values must match the series
// count.
func (b *BarChart) AddGroup(label string, values ...float64) {
	if len(values) != len(b.Series) {
		panic(fmt.Sprintf("stats: group %q has %d values for %d series", label, len(values), len(b.Series)))
	}
	b.groups = append(b.groups, barGroup{label: label, values: values})
}

// FromTable builds a chart from a table: the table's first column
// becomes group labels and the remaining columns the series. Rows with
// a non-numeric cell are skipped.
func FromTable(t *Table) *BarChart {
	b := NewBarChart(t.Title, t.Columns[1:]...)
	for i, row := range t.rows {
		if vals := t.values[i]; len(vals) == len(row)-1 && len(vals) == len(b.Series) {
			b.AddGroup(row[0], vals...)
		}
	}
	return b
}

// String renders the chart.
func (b *BarChart) String() string {
	width := b.Width
	if width <= 0 {
		width = 40
	}
	max := 0.0
	for _, g := range b.groups {
		for _, v := range g.values {
			if v > max {
				max = v
			}
		}
	}
	labelW := 0
	for _, g := range b.groups {
		if len(g.label) > labelW {
			labelW = len(g.label)
		}
	}
	seriesW := 0
	for _, s := range b.Series {
		if len(s) > seriesW {
			seriesW = len(s)
		}
	}
	var sb strings.Builder
	if b.Title != "" {
		fmt.Fprintf(&sb, "== %s ==\n", b.Title)
	}
	for _, g := range b.groups {
		fmt.Fprintf(&sb, "%s\n", g.label)
		for i, v := range g.values {
			n := 0
			if max > 0 {
				n = int(v / max * float64(width))
			}
			if v > 0 && n == 0 {
				n = 1
			}
			fmt.Fprintf(&sb, "  %-*s %8.3f %s\n", seriesW, b.Series[i], v, strings.Repeat("#", n))
		}
	}
	return sb.String()
}
