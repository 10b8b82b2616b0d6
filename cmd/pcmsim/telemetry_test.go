package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// epochRecord mirrors telemetry.EpochRecord for decoding the JSON-lines
// export independently of the package that wrote it.
type epochRecord struct {
	Epoch   int                `json:"epoch"`
	TimePs  int64              `json:"time_ps"`
	Metrics map[string]float64 `json:"metrics"`
}

// TestTelemetryGoldenSchema runs the bundled trace with every layer
// attached and pins the JSON-lines schema — the record shape plus the
// exact set of series names — against a golden file. Renaming or
// dropping a series is a breaking change for downstream dashboards and
// must show up in review as a golden diff.
func TestTelemetryGoldenSchema(t *testing.T) {
	outDir := t.TempDir()
	var out, errb bytes.Buffer
	err := run(context.Background(), []string{"-workload", "vips", "-scheme", "tetris",
		"-trace", filepath.Join("testdata", "small.trace"),
		"-caches", "-epoch", "10us", "-metrics-out", outDir, "-json"}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}

	// Decode the JSON-lines export and collect the schema.
	f, err := os.Open(filepath.Join(outDir, "epochs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seriesSet := map[string]struct{}{}
	var nRecords int
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec epochRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("record %d: %v", nRecords, err)
		}
		if rec.Epoch != nRecords {
			t.Errorf("record %d has epoch %d", nRecords, rec.Epoch)
		}
		if rec.TimePs <= 0 || rec.Metrics == nil {
			t.Errorf("record %d malformed: %+v", nRecords, rec)
		}
		for name := range rec.Metrics {
			seriesSet[name] = struct{}{}
		}
		nRecords++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if nRecords == 0 {
		t.Fatal("epochs.jsonl is empty")
	}

	names := make([]string, 0, len(seriesSet))
	for n := range seriesSet {
		names = append(names, n)
	}
	sort.Strings(names)

	// The acceptance bar: at least 8 series spanning the whole pipeline.
	if len(names) < 8 {
		t.Errorf("only %d series, want >= 8", len(names))
	}
	prefixes := map[string]bool{}
	for _, n := range names {
		p, _, _ := strings.Cut(n, ".")
		prefixes[p] = true
	}
	for _, want := range []string{"cpu", "cache", "memctrl", "pcm", "power"} {
		if !prefixes[want] {
			t.Errorf("no %s.* series in JSON-lines export; have %v", want, prefixes)
		}
	}

	var schema bytes.Buffer
	fmt.Fprintln(&schema, "record:epoch")
	fmt.Fprintln(&schema, "record:metrics")
	fmt.Fprintln(&schema, "record:time_ps")
	for _, n := range names {
		fmt.Fprintf(&schema, "series:%s\n", n)
	}
	golden := filepath.Join("testdata", "epochs_schema.golden")
	if *update {
		if err := os.WriteFile(golden, schema.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(schema.Bytes(), want) {
		t.Errorf("JSON-lines schema drifted from %s (rerun with -update if intended):\ngot:\n%s\nwant:\n%s",
			golden, schema.String(), want)
	}

	// All three export formats must be present and non-empty.
	entries, err := os.ReadDir(outDir)
	if err != nil {
		t.Fatal(err)
	}
	var csvs int
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() == 0 {
			t.Errorf("export %s is empty", e.Name())
		}
		if strings.HasSuffix(e.Name(), ".csv") {
			csvs++
		}
	}
	if csvs != len(names) {
		t.Errorf("%d CSV files for %d series", csvs, len(names))
	}
	if _, err := os.Stat(filepath.Join(outDir, "metrics.prom")); err != nil {
		t.Errorf("missing Prometheus export: %v", err)
	}

	// The -json report carries the same series as final values.
	var rep struct {
		Telemetry struct {
			Epochs int                `json:"epochs"`
			Final  map[string]float64 `json:"final"`
		} `json:"telemetry"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-json output not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Telemetry.Epochs != nRecords {
		t.Errorf("-json reports %d epochs, export has %d", rep.Telemetry.Epochs, nRecords)
	}
	if len(rep.Telemetry.Final) != len(names) {
		t.Errorf("-json final has %d series, export has %d", len(rep.Telemetry.Final), len(names))
	}
}

// Without telemetry flags the output must not change at all — the
// zero-config path is the compatibility contract.
func TestNoTelemetryFlagsOutputUnchanged(t *testing.T) {
	args := []string{"-workload", "canneal", "-scheme", "dcw", "-instr", "30000"}
	var a, b, errb bytes.Buffer
	if err := run(context.Background(), args, &a, &errb); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), append(args, "-epoch", "10us"), &b, &errb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(a.String(), "telemetry") {
		t.Errorf("plain run mentions telemetry:\n%s", a.String())
	}
	if !strings.Contains(b.String(), "telemetry") {
		t.Errorf("-epoch run missing telemetry summary:\n%s", b.String())
	}
	// The measurement lines above the telemetry summary are identical:
	// sampling never perturbs the simulation.
	head := b.String()[:strings.Index(b.String(), "telemetry")]
	if !strings.HasPrefix(a.String(), head) {
		t.Errorf("telemetry changed the report body:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestTelemetryFlagValidation(t *testing.T) {
	var out, errb bytes.Buffer
	cases := [][]string{
		{"-epoch", "banana"},
		{"-epoch", "10"},      // missing unit
		{"-epoch", "-10us"},   // negative
		{"-epoch", "0ns"},     // zero
		{"-metrics-out", "x"}, // needs -epoch
	}
	for _, args := range cases {
		if err := run(context.Background(), args, &out, &errb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestAdaptiveTelemetryGoldenSchema pins the scheme-level telemetry a
// registry composition adds to the JSON-lines export: the counters the
// remap decorator exports through schemes.StatProvider. The test keeps
// its name from when it also pinned the series of the adaptive
// meta-scheme, since deleted. Like the main schema golden, any rename or
// drop must surface as a reviewable diff.
func TestAdaptiveTelemetryGoldenSchema(t *testing.T) {
	outDir := t.TempDir()
	var out, errb bytes.Buffer
	err := run(context.Background(), []string{"-workload", "canneal", "-scheme", "tetris+remap",
		"-instr", "40000", "-epoch", "10us", "-metrics-out", outDir, "-json"}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	f, err := os.Open(filepath.Join(outDir, "epochs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seriesSet := map[string]struct{}{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var nRecords int
	for sc.Scan() {
		var rec epochRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("record %d: %v", nRecords, err)
		}
		for name := range rec.Metrics {
			seriesSet[name] = struct{}{}
		}
		nRecords++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if nRecords == 0 {
		t.Fatal("epochs.jsonl is empty")
	}

	names := make([]string, 0, len(seriesSet))
	for n := range seriesSet {
		names = append(names, n)
	}
	sort.Strings(names)

	// The scheme series must be present in every epoch record from the
	// first one — the sampler discovers the set at registration, so no
	// series may appear mid-run.
	for _, want := range []string{"scheme.remap.migrations", "scheme.remap.tracked_lines"} {
		if _, ok := seriesSet[want]; !ok {
			t.Errorf("series %q missing from export; have %v", want, names)
		}
	}

	var schema bytes.Buffer
	for _, n := range names {
		if strings.HasPrefix(n, "scheme.") {
			fmt.Fprintf(&schema, "series:%s\n", n)
		}
	}
	golden := filepath.Join("testdata", "scheme_schema.golden")
	if *update {
		if err := os.WriteFile(golden, schema.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(schema.Bytes(), want) {
		t.Errorf("scheme.* schema drifted from %s (rerun with -update if intended):\ngot:\n%s\nwant:\n%s",
			golden, schema.String(), want)
	}
}
