package system

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
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
				if d := resultDigest(t, res); d != want[cell] {
					t.Errorf("Result drifted from %s: got %s, want %s\nresult: %+v", golden, d, want[cell], res)
				}
			})
		}
	}
}

// faultsGoldenCell names the one configuration the faults golden pins.
const faultsGoldenCell = "vips/tetris/faults+spare+startgap50"

// faultsDigest hashes a Result whose optional fault, sparing and wear
// sections are set: the %+v rendering of the Result with those pointers
// cleared, followed by the rendering of each dereferenced section (fmt
// would otherwise print their addresses).
func faultsDigest(t *testing.T, r Result) string {
	t.Helper()
	if r.Fault == nil || r.Spare == nil || r.Remap == nil || r.Telemetry != nil || r.Guard != nil {
		t.Fatalf("faultsDigest needs fault, spare and remap sections and no telemetry or guard: %+v", r)
	}
	sections := fmt.Sprintf("fault=%+v spare=%+v remap=%+v", *r.Fault, *r.Spare, *r.Remap)
	if r.Wear != nil {
		sections += fmt.Sprintf(" wear=%+v", *r.Wear)
	}
	r.Fault, r.Spare, r.Remap, r.Wear = nil, nil, nil, nil
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v\n%s", r, sections)))
	return hex.EncodeToString(sum[:])
}

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
	golden := filepath.Join("testdata", "faults_golden.json")
	got := faultsDigest(t, res)
	if *update {
		b, err := json.MarshalIndent(map[string]string{faultsGoldenCell: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want := loadGolden(t, golden)[faultsGoldenCell]; want != got {
		t.Errorf("Result drifted from %s: got %s, want %s\nresult: %+v", golden, got, want, res)
	}
}
