package system

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tetriswrite/internal/guard"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/trace"
	"tetriswrite/internal/units"
	"tetriswrite/internal/workload"
)

// sectionsDigest hashes a Result with any of its optional sections set:
// the %+v rendering of the Result with the pointer sections cleared,
// followed by the rendering of each dereferenced section and the
// sampler's JSON-lines export (fmt would otherwise print addresses).
func sectionsDigest(t *testing.T, r Result) string {
	t.Helper()
	var sections strings.Builder
	if r.Wear != nil {
		fmt.Fprintf(&sections, "wear=%+v\n", *r.Wear)
	}
	if r.Remap != nil {
		fmt.Fprintf(&sections, "remap=%+v\n", *r.Remap)
	}
	if r.Fault != nil {
		fmt.Fprintf(&sections, "fault=%+v\n", *r.Fault)
	}
	if r.Spare != nil {
		fmt.Fprintf(&sections, "spare=%+v\n", *r.Spare)
	}
	if r.Guard != nil {
		fmt.Fprintf(&sections, "guard=%+v\n", *r.Guard)
	}
	if r.Telemetry != nil {
		sections.WriteString("telemetry=\n")
		if err := r.Telemetry.WriteJSONLines(&sections); err != nil {
			t.Fatal(err)
		}
	}
	r.Wear, r.Remap, r.Fault, r.Spare, r.Guard, r.Telemetry = nil, nil, nil, nil, nil, nil
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v\n%s", r, sections.String())))
	return hex.EncodeToString(sum[:])
}

// traceGoldenCells are the RunTrace configurations the trace golden
// pins, keyed by cell name suffix: the plain platform, the cache
// hierarchy with idle PreSET, and the fault model with spares.
func traceGoldenCells() map[string]Config {
	base := Config{Params: pcm.DefaultParams(), InstrBudget: 5_000, Seed: 7}
	cached := base
	cached.UseCaches = true
	cached.Ctrl.IdlePreset = true
	faulty := base
	faulty.Fault = faultConfig().Fault
	faulty.SpareLines = 32
	return map[string]Config{"plain": base, "caches+preset": cached, "fault+spares": faulty}
}

// TestTraceGolden pins RunTrace to testdata/trace_golden.json: one small
// generated vips trace on 2 cores, its access rates raised 20x so that
// 5k instructions per core reach the caches, the spares and wear-out,
// replayed under the five paper schemes
// on the plain platform, behind the caches with idle PreSET, and with
// the fault model and spares, plus one tetris cell with the guard's deep
// checks and the telemetry sampler attached. Replay builds the same
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
			got[mk.name+"/"+name] = sectionsDigest(t, res)
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
	got["tetris/guard+epoch"] = sectionsDigest(t, res)

	golden := filepath.Join("testdata", "trace_golden.json")
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
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
