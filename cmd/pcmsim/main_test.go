package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tetriswrite/internal/pcm"
	"tetriswrite/internal/trace"
	"tetriswrite/internal/workload"
)

func TestRunBasic(t *testing.T) {
	var out, errb bytes.Buffer
	err := run(context.Background(), []string{"-workload", "canneal", "-scheme", "tetris", "-instr", "30000"}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	for _, want := range []string{"workload       canneal", "scheme         tetris", "write units", "energy"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunFlagsValidation(t *testing.T) {
	var out, errb bytes.Buffer
	cases := [][]string{
		{"-scheme", "bogus"},
		{"-workload", "bogus"},
		{"-line", "60"}, // not a multiple of the write unit
		{"-badflag"},
		{"-instr", "0"},
		{"-instr", "-5"},
		{"-cores", "0"},
		{"-budget", "-1"},
		{"-banks", "0"},
		{"-subarrays", "-2"},
		{"-verify-retries", "-1"},
		{"-spare", "-8"},
		{"-endurance-cv", "-0.5"},            // negative CV
		{"-transient-rate", "1.5"},           // outside [0,1)
		{"-endurance-cv", "0.2"},             // CV without -endurance
		{"-fault-seed", "7"},                 // fault knob, no failure mode
		{"-verify-retries", "5"},             // ditto
		{"-spare", "32"},                     // ditto
		{"-fault-seed", "7", "-spare", "32"}, // several orphans at once
	}
	for _, args := range cases {
		if err := run(context.Background(), args, &out, &errb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	// A name outside the registry, such as a composition with the deleted
	// flipmin decorator, fails with the sorted catalogue before anything
	// runs.
	out.Reset()
	err := run(context.Background(), []string{"-scheme", "dcw+flipmin"}, &out, &errb)
	if want := `registry: unknown decorator "flipmin" (schemes: 2stage, 3stage, baseline, conventional, dcw, flip-n-write, fnw, tetris, threestage, twostage; decorators, composed with '+': remap)`; err == nil || err.Error() != want || out.Len() != 0 {
		t.Errorf("-scheme dcw+flipmin: err = %v, output %q; want %q and no output", err, out.String(), want)
	}
	// The orphan message names the offending flags.
	err = run(context.Background(), []string{"-fault-seed", "7", "-spare", "32"}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "-fault-seed") || !strings.Contains(err.Error(), "-spare") {
		t.Errorf("orphan fault flags error unhelpful: %v", err)
	}
}

// The fault flags thread through to the platform: a faulty run prints
// the recovery counters, and the same -fault-seed reproduces them.
func TestRunWithFaultFlags(t *testing.T) {
	args := []string{"-workload", "vips", "-scheme", "dcw", "-instr", "40000",
		"-endurance", "3", "-endurance-cv", "0.25", "-transient-rate", "0.002",
		"-fault-seed", "7", "-verify-retries", "4", "-spare", "32"}
	var out1, out2, errb bytes.Buffer
	if err := run(context.Background(), args, &out1, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	for _, want := range []string{"faults", "wear-out", "sparing", "verify time"} {
		if !strings.Contains(out1.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out1.String())
		}
	}
	if err := run(context.Background(), args, &out2, &errb); err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Errorf("same -fault-seed produced different output:\n%s\nvs\n%s", out1.String(), out2.String())
	}
	// A transient-only run needs no -endurance and still verifies.
	var out3 bytes.Buffer
	if err := run(context.Background(), []string{"-workload", "vips", "-instr", "30000",
		"-transient-rate", "0.01"}, &out3, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out3.String(), "faults") {
		t.Errorf("transient-only run missing fault stats:\n%s", out3.String())
	}
}

func TestRunWithSubarraysAndPausing(t *testing.T) {
	var out, errb bytes.Buffer
	err := run(context.Background(), []string{"-workload", "vips", "-scheme", "dcw", "-instr", "30000",
		"-subarrays", "4", "-pausing"}, &out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "overlap") {
		t.Errorf("expected overlap statistics in output:\n%s", out.String())
	}
}

func TestRunTraceReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trace")
	// Generate a trace with the tracegen logic equivalent: use the trace
	// package through a tiny file.
	if err := writeTestTrace(path); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	err := run(context.Background(), []string{"-workload", "ferret", "-scheme", "3stage", "-instr", "50000",
		"-trace", path}, &out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ferret (trace)") {
		t.Errorf("trace replay output wrong:\n%s", out.String())
	}
	// Missing file errors cleanly.
	if err := run(context.Background(), []string{"-trace", filepath.Join(dir, "nope")}, &out, &errb); err == nil {
		t.Error("missing trace file accepted")
	}
}

func writeTestTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return emitTrace(f)
}

func emitTrace(f *os.File) error {
	par := pcmDefaultForTest()
	prof, err := workload.ProfileByName("ferret")
	if err != nil {
		return err
	}
	recs := trace.Generate(prof, 2, 3, par, 500)
	w, err := trace.NewWriter(f, 2, par.LineBytes)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	return w.Flush()
}

func pcmDefaultForTest() pcm.Params { return pcm.DefaultParams() }

// TestRunWithGuard: -guard validates the run and reports its counters
// without changing any simulation result.
func TestRunWithGuard(t *testing.T) {
	args := []string{"-workload", "vips", "-scheme", "tetris", "-instr", "30000"}
	var plain, guarded, errb bytes.Buffer
	if err := run(context.Background(), args, &plain, &errb); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), append(args, "-guard", "-deep-checks"), &guarded, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(guarded.String(), "guard") {
		t.Errorf("guarded run missing guard counters:\n%s", guarded.String())
	}
	// Minus its own counter line, the guarded report is byte-identical:
	// the guard observes, it never perturbs.
	var kept []string
	for _, line := range strings.Split(guarded.String(), "\n") {
		if strings.HasPrefix(line, "guard ") {
			continue
		}
		kept = append(kept, line)
	}
	if got := strings.Join(kept, "\n"); got != plain.String() {
		t.Errorf("guard changed the report:\nplain:\n%s\nguarded:\n%s", plain.String(), guarded.String())
	}
}

func TestRunGuardFlagValidation(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-deep-checks"}, &out, &errb); err == nil {
		t.Error("-deep-checks without -guard accepted")
	}
	if err := run(context.Background(), []string{"-run-timeout", "-1s"}, &out, &errb); err == nil {
		t.Error("negative -run-timeout accepted")
	}
	if err := run(context.Background(), []string{"-max-simtime", "bogus"}, &out, &errb); err == nil {
		t.Error("unparseable -max-simtime accepted")
	}
}

// TestRunMaxEventsBudget: an absurdly small event budget aborts the run
// with a budget error that names the limit.
func TestRunMaxEventsBudget(t *testing.T) {
	var out, errb bytes.Buffer
	err := run(context.Background(), []string{"-workload", "vips", "-instr", "50000",
		"-max-events", "100"}, &out, &errb)
	if err == nil {
		t.Fatal("run under a 100-event budget succeeded")
	}
	if !strings.Contains(err.Error(), "event budget") && !strings.Contains(err.Error(), "100") {
		t.Errorf("budget error unhelpful: %v", err)
	}
}

// TestRunTraceLineSizeMismatch: replaying a trace against a platform
// with a different line size is refused up front, naming both sizes.
func TestRunTraceLineSizeMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trace")
	if err := writeTestTrace(path); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	err := run(context.Background(), []string{"-trace", path, "-line", "128"}, &out, &errb)
	if err == nil {
		t.Fatal("line-size mismatch accepted")
	}
	if !strings.Contains(err.Error(), "64") || !strings.Contains(err.Error(), "128") {
		t.Errorf("mismatch error does not name both sizes: %v", err)
	}
}
