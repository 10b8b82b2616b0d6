package exp

import (
	"strings"
	"testing"

	"tetriswrite/internal/units"
)

func TestEpochSummaryAndSeries(t *testing.T) {
	opt := fastOptions()
	opt.Epoch = 20 * units.Microsecond
	fr, err := RunFullSystem(opt)
	if err != nil {
		t.Fatal(err)
	}
	tb := fr.EpochSummary()
	out := tb.String()
	for _, want := range []string{"Epoch telemetry", "wq mean", "budget util", "vips", "tetris"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "no -epoch set") {
		t.Error("summary claims no epoch despite Options.Epoch")
	}

	// The summary's source: every cell carries its raw epoch series.
	for w, prof := range fr.Profiles {
		for s, sch := range fr.Schemes {
			if tel := fr.Results[w][s].Telemetry; tel == nil || len(tel.Series("memctrl.write_queue_depth")) == 0 {
				t.Errorf("no write-queue series for %s/%s", prof.Name, sch.Name)
			}
		}
	}
}

func TestEpochSummaryWithoutEpoch(t *testing.T) {
	fr, err := RunFullSystem(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := fr.EpochSummary().String()
	if !strings.Contains(out, "no -epoch set") {
		t.Errorf("summary should flag the missing epoch:\n%s", out)
	}
	for w := range fr.Profiles {
		for s := range fr.Schemes {
			if fr.Results[w][s].Telemetry != nil {
				t.Errorf("cell %d/%d has telemetry attached without an epoch", w, s)
			}
		}
	}
}
