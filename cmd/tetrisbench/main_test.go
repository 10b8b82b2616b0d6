package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleFigure(t *testing.T) {
	var out, errb bytes.Buffer
	err := run(context.Background(), []string{"-fig", "10", "-writes", "100"}, &out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 10") {
		t.Errorf("missing Figure 10:\n%s", out.String())
	}
	if strings.Contains(out.String(), "Figure 11") {
		t.Error("unrequested figure printed")
	}
}

func TestRunTables(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-table", "2"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table II") {
		t.Error("missing Table II")
	}
	out.Reset()
	if err := run(context.Background(), []string{"-table", "3"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table III") {
		t.Error("missing Table III")
	}
}

func TestRunFullSystemFigure(t *testing.T) {
	var out, errb bytes.Buffer
	err := run(context.Background(), []string{"-fig", "13", "-instr", "30000", "-writes", "100"}, &out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "IPC improvement") {
		t.Errorf("missing Figure 13 output:\n%s", out.String())
	}
}

func TestRunSweep(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-sweep", "budget", "-writes", "50"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Power-budget sweep") {
		t.Error("missing budget sweep")
	}
	if err := run(context.Background(), []string{"-sweep", "bogus"}, &out, &errb); err == nil {
		t.Error("unknown sweep accepted")
	}
}

func TestRunNothingToDo(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), nil, &out, &errb); err == nil {
		t.Error("no-op invocation accepted")
	}
}

func TestRunCheck(t *testing.T) {
	var out, errb bytes.Buffer
	err := run(context.Background(), []string{"-check", "-writes", "300", "-instr", "50000"}, &out, &errb)
	if err != nil {
		t.Fatalf("check failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "all 9 reproduction checks passed") {
		t.Errorf("certificate line missing:\n%s", out.String())
	}
}

func TestRunSeedsAndFormats(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-seeds", "2", "-instr", "20000", "-writes", "50"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "across seeds") {
		t.Errorf("seed sweep output missing:\n%s", out.String())
	}
	out.Reset()
	if err := run(context.Background(), []string{"-fig", "10", "-writes", "50", "-csv"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "workload,baseline,fnw") {
		t.Errorf("CSV header missing:\n%s", out.String())
	}
	out.Reset()
	if err := run(context.Background(), []string{"-fig", "10", "-writes", "50", "-plot"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "#") {
		t.Error("plot output has no bars")
	}
	out.Reset()
	if err := run(context.Background(), []string{"-fig", "11", "-instr", "20000", "-writes", "50", "-tail"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "P99 read latency") {
		t.Error("tail table missing")
	}
	out.Reset()
	if err := run(context.Background(), []string{"-endurance", "-instr", "60000"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Endurance") {
		t.Error("endurance table missing")
	}
}

func TestRunMLC(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-mlc"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "SLC vs MLC") || !strings.Contains(out.String(), "ratio") {
		t.Errorf("mlc output wrong:\n%s", out.String())
	}
}

func TestRunEpochSummary(t *testing.T) {
	var out, errb bytes.Buffer
	err := run(context.Background(), []string{"-fig", "11", "-instr", "40000", "-epoch", "20us"}, &out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Epoch telemetry", "wq mean", "budget util", "tetris"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("epoch summary missing %q:\n%s", want, out.String())
		}
	}
	// -epoch needs the full-system figures to have anything to sample.
	if err := run(context.Background(), []string{"-fig", "10", "-epoch", "20us"}, &out, &errb); err == nil {
		t.Error("-epoch with a chip-level figure accepted")
	}
	if err := run(context.Background(), []string{"-fig", "11", "-epoch", "bogus"}, &out, &errb); err == nil {
		t.Error("bad -epoch value accepted")
	}
}

// TestParallelMatchesSerialOutput is the CLI-level determinism contract:
// -parallel 1 and -parallel 4 produce byte-identical tables.
func TestParallelMatchesSerialOutput(t *testing.T) {
	args := []string{"-fig", "13", "-instr", "10000", "-writes", "50"}
	var serial, parallel, errb bytes.Buffer
	if err := run(context.Background(), append(args, "-parallel", "1"), &serial, &errb); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), append(args, "-parallel", "4"), &parallel, &errb); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("-parallel 4 output differs from -parallel 1:\nserial:\n%s\nparallel:\n%s",
			serial.String(), parallel.String())
	}
	if serial.Len() == 0 {
		t.Fatal("no output rendered")
	}
}

// TestIdenticalFlagsGoldenOutput is the harness-level determinism
// regression test: two runs with identical flags emit byte-identical
// tables. The flag set deliberately crosses every randomness source the
// harness owns — the seeded workload generators, the full-system sweep,
// and the -mlc comparison, whose drift sampling draws from the
// harness-local seeded *rand.Rand (a global-rand regression here would
// show up as run-to-run drift).
func TestIdenticalFlagsGoldenOutput(t *testing.T) {
	args := []string{"-fig", "13", "-instr", "10000", "-writes", "50", "-mlc", "-seed", "3"}
	var first, second, errb bytes.Buffer
	if err := run(context.Background(), args, &first, &errb); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), args, &second, &errb); err != nil {
		t.Fatal(err)
	}
	if first.Len() == 0 {
		t.Fatal("no output rendered")
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("identical invocations diverged:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
	}
}

// TestCancelledSweepRendersPartials: a pre-cancelled context fails the
// sweep but still reports how many cells finished.
func TestCancelledSweepRendersPartials(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb bytes.Buffer
	err := run(ctx, []string{"-fig", "13", "-instr", "10000", "-writes", "50"}, &out, &errb)
	if err == nil {
		t.Fatal("cancelled sweep reported success")
	}
}

func TestBadParallelFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-fig", "13", "-parallel", "-2"}, &out, &errb); err == nil {
		t.Fatal("negative -parallel accepted")
	}
	if err := run(context.Background(), []string{"-fig", "13", "-run-timeout", "-1s"}, &out, &errb); err == nil {
		t.Fatal("negative -run-timeout accepted")
	}
	// Non-positive scale flags must fail naming the flag, not fall back
	// to hidden defaults.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "13", "-instr", "-5"}, "-instr -5: instruction budget must be positive"},
		{[]string{"-fig", "13", "-instr", "0"}, "-instr 0: instruction budget must be positive"},
		{[]string{"-fig", "11", "-cores", "-3"}, "-cores -3: need at least one core"},
		{[]string{"-fig", "11", "-cores", "0"}, "-cores 0: need at least one core"},
		{[]string{"-fig", "10", "-writes", "-1"}, "-writes -1: write sample count must be positive"},
		{[]string{"-fig", "10", "-writes", "0"}, "-writes 0: write sample count must be positive"},
		{[]string{"-fig", "10", "-line", "-64"}, "-line -64: pcm: LineBytes must be positive"},
		{[]string{"-fig", "10", "-line", "0"}, "-line 0: pcm: LineBytes must be positive"},
		{[]string{"-fig", "10", "-line", "24"}, "-line 24: pcm: CapacityBytes must be a multiple of LineBytes"},
		{[]string{"-seeds", "-2"}, "-seeds -2: seed count cannot be negative"},
		{[]string{"-crash-every", "-5"}, "-crash-every -5: cut interval cannot be negative"},
		{[]string{"-crash-every", "64", "-crash-cuts", "-3"}, "-crash-cuts -3: cut cap cannot be negative"},
	} {
		out.Reset()
		err := run(context.Background(), tc.args, &out, &errb)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed output despite the error:\n%s", tc.args, out.String())
		}
	}
}

func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errb bytes.Buffer
	err := run(context.Background(),
		[]string{"-table", "2", "-cpuprofile", cpu, "-memprofile", mem}, &out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}
