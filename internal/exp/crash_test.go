package exp

import (
	"os"
	"strings"
	"testing"

	"tetriswrite/internal/workload"
)

// TestCrashSweepContract is the crash-smoke anchor: a small sweep over
// the full workload × scheme grid whose three contracts (acked-write
// durability, recovery-to-intent, resume-to-oracle) are asserted inside
// CrashSweep itself — any violation surfaces as an error here.
func TestCrashSweepContract(t *testing.T) {
	opt := CrashSweepOptions{
		Options: Options{Writes: 40, Seed: 9},
		Every:   64,
		MaxCuts: 2,
	}
	res, err := CrashSweep(opt)
	if err != nil {
		t.Fatal(err)
	}

	wantCells := len(workload.Profiles()) * 6 // 5 compared schemes + conventional
	if len(res.Cells) != wantCells {
		t.Fatalf("%d cells, want %d", len(res.Cells), wantCells)
	}
	var cuts, intents, classified int
	convReissues := 0
	for _, c := range res.Cells {
		if c.TotalPulses == 0 {
			t.Errorf("%s/%s: oracle counted no pulses", c.Workload, c.Scheme)
		}
		if c.Cuts == 0 {
			t.Errorf("%s/%s: no cuts on a %d-pulse run", c.Workload, c.Scheme, c.TotalPulses)
		}
		cuts += c.Cuts
		intents += c.Intents
		classified += c.Clean + c.Rollforwards + c.Reissues
		if c.Scheme == "conventional" {
			convReissues += c.Reissues
		}
	}
	if cuts == 0 || intents == 0 {
		t.Fatalf("sweep exercised %d cuts / %d intents; want both nonzero", cuts, intents)
	}
	// Every armed intent found at a cut is classified exactly once.
	if classified != intents {
		t.Errorf("classified %d of %d intents", classified, intents)
	}
	// Conventional writes every bit unconditionally: a torn line is
	// always completable by rolling the full schedule forward.
	if convReissues != 0 {
		t.Errorf("conventional classified %d reissues; its torn lines always roll forward", convReissues)
	}

	out := res.Table().String()
	for _, s := range []string{"conventional", "baseline", "fnw", "2stage", "3stage", "tetris"} {
		if !strings.Contains(out, s) {
			t.Errorf("classification table missing scheme %q:\n%s", s, out)
		}
	}
}

const crashGolden = "testdata/crash_golden.txt"

// TestCrashTableGolden pins the crash classification table — the
// artifact of `tetrisbench -crash-every 64 -crash-cuts 4 -writes 80` —
// for the default grid and for a grid of remap compositions over tagged
// inner schemes. Rewrite the file with -update only for an intended
// change to how torn lines are classified or repaired.
func TestCrashTableGolden(t *testing.T) {
	var b strings.Builder
	for _, grid := range [][]string{nil, {"fnw+remap", "tetris+remap"}} {
		res, err := CrashSweep(CrashSweepOptions{
			Options: Options{Writes: 80, Seed: 1, Schemes: grid},
			Every:   64,
			MaxCuts: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(res.Table().String())
		b.WriteByte('\n')
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(crashGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(crashGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("crash table differs from %s:\n%s", crashGolden, lineDiff(string(want), got))
	}
}
