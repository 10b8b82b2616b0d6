package system

import (
	"path/filepath"
	"testing"

	"tetriswrite/internal/schemes"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/workload"
)

// TestEngineQueueCrossCheck is the event-engine acceptance gate: over
// the full 8-workload sweep and every base write scheme, the engine must
// reproduce the Result digests committed in testdata/serial_golden.json.
// Any change in event order — a reordered event, a dropped tiebreak, an
// event landing one tick off — shows up here as a digest mismatch on the
// complete statistics struct (latencies, energy, per-core stats,
// controller histograms). The name dates from when the gate compared
// two selectable event queues in the same tree.
func TestEngineQueueCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload x scheme sweep")
	}
	factories := map[string]schemes.Factory{
		"conventional": schemes.NewConventional,
		"dcw":          schemes.NewDCW,
		"fnw":          schemes.NewFlipNWrite,
		"twostage":     schemes.NewTwoStage,
		"threestage":   schemes.NewThreeStage,
		"tetris":       tetris.New,
	}
	golden := filepath.Join("testdata", "serial_golden.json")
	want := loadGolden(t, golden)
	names := []string{"conventional", "dcw", "fnw", "twostage", "threestage", "tetris"}
	for _, prof := range workload.Profiles() {
		for _, name := range names {
			prof, name := prof, name
			cell := prof.Name + "/" + name
			t.Run(cell, func(t *testing.T) {
				t.Parallel()
				res, err := Run(prof, factories[name], Config{InstrBudget: 60_000, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				if d := canonicalDigest(t, res); d != want[cell] {
					t.Errorf("Result drifted from %s: got %s, want %s\nresult: %+v", golden, d, want[cell], res)
				}
			})
		}
	}
}

// faultsGoldenCell names the one configuration the faults golden pins.
const faultsGoldenCell = "vips/tetris/faults+spare+startgap50"

// TestEngineQueueCrossCheckFaults pins the one configuration whose event
// pattern differs most from the plain sweep to
// testdata/faults_golden.json: verify-retry loops, hard-error sparing
// and Start-Gap wear leveling all enabled at once. These layers schedule
// same-cycle follow-up events and far-future maintenance work, which
// serial_golden.json does not cover. Rerun with -update only for an
// intended change of results.
func TestEngineQueueCrossCheckFaults(t *testing.T) {
	prof := faultProfile(t)
	cfg := faultConfig()
	cfg.WearLevelPsi = 50
	res, err := Run(prof, tetris.New, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault == nil || res.Spare == nil || res.Remap == nil {
		t.Fatalf("faults cell lacks its fault, spare or remap section: %+v", res)
	}
	golden := filepath.Join("testdata", "faults_golden.json")
	got := canonicalDigest(t, res)
	if *update {
		writeGolden(t, golden, map[string]string{faultsGoldenCell: got})
		return
	}
	if want := loadGolden(t, golden)[faultsGoldenCell]; want != got {
		t.Errorf("Result drifted from %s: got %s, want %s\nresult: %+v", golden, got, want, res)
	}
}
