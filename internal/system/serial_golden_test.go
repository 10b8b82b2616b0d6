package system

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tetriswrite/internal/registry"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// serialGoldenNames is the composition set the serial-engine golden
// sweeps: every base scheme plus one instance of each decorator and the
// adaptive meta-scheme.
var serialGoldenNames = []string{
	"conventional", "dcw", "fnw", "twostage", "threestage", "tetris",
	"dcw+flipmin", "dcw+remap", "tetris+remap", "dcw+mlc", "adaptive",
}

func serialGoldenFactory(t *testing.T, name string) schemes.Factory {
	t.Helper()
	switch name {
	case "conventional":
		return schemes.NewConventional
	case "dcw":
		return schemes.NewDCW
	case "fnw":
		return schemes.NewFlipNWrite
	case "twostage":
		return schemes.NewTwoStage
	case "threestage":
		return schemes.NewThreeStage
	case "tetris":
		return tetris.New
	}
	e, err := registry.Default().Resolve(name)
	if err != nil {
		t.Fatal(err)
	}
	return e.Factory
}

// loadGolden reads a committed map of cell name to Result digest.
func loadGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return want
}

// writeGolden writes a map of cell name to digest as indented JSON.
func writeGolden(t *testing.T, path string, digests map[string]string) {
	t.Helper()
	b, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestEngineModeCrossCheck pins the one simulation engine to
// testdata/serial_golden.json over the full 8-workload sweep and every
// scheme composition. The digests were recorded when the simulator still
// had a second, per-bank parallel engine mode, on runs where the serial
// and parallel modes produced bit-identical Results; the test keeps its
// name from that serial-vs-parallel gate. The remaining engine must
// reproduce those Results exactly, so a change to event order, stat
// accumulation or scheme planning anywhere in the full system shows up
// here. Rerun with -update only for an intended change of results.
//
// Every cell also runs through RunRecordedCtx, replaying one recording
// of its workload that the workload's cells share, as the sweep's do;
// it must give the same Result.
func TestEngineModeCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload x scheme sweep")
	}
	golden := filepath.Join("testdata", "serial_golden.json")
	want := map[string]string{}
	if !*update {
		want = loadGolden(t, golden)
		if n := len(workload.Profiles()) * len(serialGoldenNames); len(want) != n {
			t.Errorf("%s has %d cells, the sweep runs %d (rerun with -update if intended)", golden, len(want), n)
		}
	}
	var mu sync.Mutex
	got := map[string]string{}
	if *update {
		t.Cleanup(func() { writeGolden(t, golden, got) })
	}
	cfg := Config{InstrBudget: 60_000, Seed: 7}
	cfg.Normalize()
	for _, prof := range workload.Profiles() {
		rec, err := workload.Record(context.Background(), prof, cfg.Cores, cfg.Seed, cfg.Params, cfg.InstrBudget)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range serialGoldenNames {
			prof, name := prof, name
			cell := prof.Name + "/" + name
			t.Run(cell, func(t *testing.T) {
				t.Parallel()
				factory := serialGoldenFactory(t, name)
				res, err := Run(prof, factory, cfg)
				if err != nil {
					t.Fatal(err)
				}
				d := canonicalDigest(t, res)
				replayed, err := RunRecordedCtx(context.Background(), rec, factory, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if rd := canonicalDigest(t, replayed); rd != d {
					t.Errorf("recorded run differs from the generated one: got %s, want %s\nresult: %+v", rd, d, replayed)
				}
				if *update {
					mu.Lock()
					got[cell] = d
					mu.Unlock()
					return
				}
				if want[cell] != d {
					t.Errorf("Result drifted from %s: got %s, want %s\nresult: %+v", golden, d, want[cell], res)
				}
			})
		}
	}
}
