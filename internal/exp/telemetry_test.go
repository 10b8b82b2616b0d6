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

	wq := fr.EpochSeries("vips", "tetris", "memctrl.write_queue_depth")
	if len(wq) == 0 {
		t.Fatal("no write-queue series for vips/tetris")
	}
	if fr.EpochSeries("vips", "nope", "memctrl.write_queue_depth") != nil {
		t.Error("unknown scheme returned a series")
	}
	if fr.EpochSeries("nope", "tetris", "memctrl.write_queue_depth") != nil {
		t.Error("unknown workload returned a series")
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
	if fr.EpochSeries("vips", "tetris", "memctrl.write_queue_depth") != nil {
		t.Error("series returned without telemetry attached")
	}
}
