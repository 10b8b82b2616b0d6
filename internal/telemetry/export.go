package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Exporters render a sampler's series in three formats:
//
//   - CSV, one file per series (epoch,time_ps,value) — for spreadsheets
//     and gnuplot;
//   - JSON-lines, one record per epoch with every metric — the
//     machine-readable format other tools consume, schema pinned by a
//     golden test;
//   - Prometheus text exposition of the final values — so a run's last
//     snapshot can be scraped or diffed with standard tooling.

// sanitizeName maps a metric name to a filesystem- and
// Prometheus-friendly identifier: dots and dashes become underscores,
// anything else non-alphanumeric is dropped.
func sanitizeName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		case r == '.', r == '-', r == '/':
			b.WriteByte('_')
		}
	}
	return b.String()
}

// formatValue renders a sample without float noise: integral values
// print as integers (counters stay readable), others with full float64
// round-trip precision.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteSeriesCSV writes one metric's retained series as CSV.
func (s *Sampler) WriteSeriesCSV(w io.Writer, name string) error {
	vals := s.Series(name)
	times := s.Times()
	first := s.FirstEpoch()
	if _, err := fmt.Fprintln(w, "epoch,time_ps,value"); err != nil {
		return err
	}
	for i := range vals {
		if _, err := fmt.Fprintf(w, "%d,%d,%s\n", first+i, int64(times[i]), formatValue(vals[i])); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSVDir writes every series as <dir>/<sanitized-name>.csv,
// creating dir if needed.
func (s *Sampler) WriteCSVDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range s.SeriesNames() {
		f, err := os.Create(filepath.Join(dir, sanitizeName(name)+".csv"))
		if err != nil {
			return err
		}
		werr := s.WriteSeriesCSV(f, name)
		cerr := f.Close()
		if werr != nil {
			return werr
		}
		if cerr != nil {
			return cerr
		}
	}
	return nil
}

// EpochRecord is one JSON-lines record: everything the pipeline reported
// at one epoch boundary. Metrics maps metric name to sampled value;
// encoding/json emits keys sorted, so records are byte-deterministic.
type EpochRecord struct {
	Epoch   int                `json:"epoch"`
	TimePs  int64              `json:"time_ps"`
	Metrics map[string]float64 `json:"metrics"`
}

// SnapshotRecord polls every metric of a live registry into one
// EpochRecord — the streaming counterpart of the sampler's ring for
// consumers that tail a long-running process (the fleet broker's
// /metrics/stream endpoint) rather than replay a finished simulation.
// Metric names are keys exactly as registered, matching WriteJSONLines,
// so the same tooling parses both streams.
func SnapshotRecord(reg *Registry, epoch int, timePs int64) EpochRecord {
	ms := reg.Metrics()
	rec := EpochRecord{Epoch: epoch, TimePs: timePs, Metrics: make(map[string]float64, len(ms))}
	for _, m := range ms {
		rec.Metrics[m.Name] = m.Value()
	}
	return rec
}

// WriteJSONLines writes one EpochRecord per retained epoch.
func (s *Sampler) WriteJSONLines(w io.Writer) error {
	names := s.SeriesNames()
	first := s.FirstEpoch()
	enc := json.NewEncoder(w)
	for i, row := range s.rows {
		rec := EpochRecord{Epoch: first + i, TimePs: int64(s.times[i]), Metrics: make(map[string]float64, len(names))}
		for j, name := range names {
			rec.Metrics[name] = row[j]
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// WritePrometheus renders the registry's current values in the
// Prometheus text exposition format (final-state scrape).
func WritePrometheus(w io.Writer, reg *Registry) error {
	for _, m := range reg.Metrics() {
		name := sanitizeName(m.Name)
		if m.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, m.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, m.Kind); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", name, formatValue(m.Value())); err != nil {
			return err
		}
	}
	return nil
}

// Filenames of ExportDir's fixed-name artifacts.
const (
	JSONLinesFile  = "epochs.jsonl"
	PrometheusFile = "metrics.prom"
)

// ExportDir writes the full artifact set into dir: one CSV per series,
// epochs.jsonl with every epoch record, and metrics.prom with the final
// Prometheus exposition.
func (s *Sampler) ExportDir(dir string) error {
	if err := s.WriteCSVDir(dir); err != nil {
		return err
	}
	jf, err := os.Create(filepath.Join(dir, JSONLinesFile))
	if err != nil {
		return err
	}
	werr := s.WriteJSONLines(jf)
	if cerr := jf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	pf, err := os.Create(filepath.Join(dir, PrometheusFile))
	if err != nil {
		return err
	}
	werr = WritePrometheus(pf, s.reg)
	if cerr := pf.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
