package system

import (
	"path/filepath"
	"testing"

	"tetriswrite/internal/guard"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/trace"
	"tetriswrite/internal/units"
	"tetriswrite/internal/workload"
)

// traceGoldenCells are the RunTrace configurations the trace golden
// pins, keyed by cell name suffix: the plain platform, the cache
// hierarchy, and the fault model with spares.
func traceGoldenCells() map[string]Config {
	base := Config{Params: pcm.DefaultParams(), InstrBudget: 5_000, Seed: 7}
	cached := base
	cached.UseCaches = true
	faulty := base
	faulty.Fault = faultConfig().Fault
	faulty.SpareLines = 32
	return map[string]Config{"plain": base, "caches": cached, "fault+spares": faulty}
}

// TestTraceGolden pins RunTrace to testdata/trace_golden.json: one small
// generated vips trace on 2 cores, its access rates raised 20x so that
// 5k instructions per core reach the caches, the spares and wear-out,
// replayed under the five paper schemes on the plain platform, behind
// the caches, and with the fault model and spares, plus one tetris cell
// with the guard's deep checks and the telemetry sampler attached. Replay builds the same
// platform Run builds, so this golden moves only with an intended change
// of results; rerun with -update then.
func TestTraceGolden(t *testing.T) {
	prof, err := workload.ProfileByName("vips")
	if err != nil {
		t.Fatal(err)
	}
	prof.RPKI *= 20
	prof.WPKI *= 20
	recs := trace.Generate(prof, 2, 7, pcm.DefaultParams(), 2000)
	got := map[string]string{}
	for name, cfg := range traceGoldenCells() {
		for _, mk := range allFactories {
			res, err := RunTrace("vips", recs, 2, mk.factory, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", mk.name, name, err)
			}
			got[mk.name+"/"+name] = canonicalDigest(t, res)
		}
	}
	observed := traceGoldenCells()["plain"]
	observed.Guard = guard.Config{Enabled: true, DeepChecks: true}
	observed.Epoch = 2 * units.Microsecond
	res, err := RunTrace("vips", recs, 2, tetris.New, observed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Guard == nil || res.Telemetry == nil || res.Telemetry.Epochs() == 0 {
		t.Fatalf("guarded, sampled cell lacks its sections: %+v", res)
	}
	got["tetris/guard+epoch"] = canonicalDigest(t, res)

	golden := filepath.Join("testdata", "trace_golden.json")
	if *update {
		writeGolden(t, golden, got)
		return
	}
	want := loadGolden(t, golden)
	if len(want) != len(got) {
		t.Errorf("%s has %d cells, the test runs %d (rerun with -update if intended)", golden, len(want), len(got))
	}
	for cell, d := range got {
		if want[cell] != d {
			t.Errorf("%s: Result drifted from %s: got %s, want %s", cell, golden, d, want[cell])
		}
	}
}
