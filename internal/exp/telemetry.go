package exp

import (
	"tetriswrite/internal/stats"
)

// seriesStats reduces one time series to its mean and max; zero-length
// series reduce to zeros.
func seriesStats(vals []float64) (mean, max float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
		if v > max {
			max = v
		}
	}
	return sum / float64(len(vals)), max
}

// EpochSummary condenses every run's epoch series into one row per
// workload and scheme: how deep the write queue ran, how hard the power
// budget was driven, and how often the controller fell into a drain.
// It needs Options.Epoch to have been set for the sweep; without it the
// table only carries zero epochs and says so in the title.
func (fr *FullResults) EpochSummary() *stats.Table {
	title := "Epoch telemetry: write-queue and power-budget behaviour over time"
	if fr.Options.Epoch > 0 {
		title += " (epoch " + fr.Options.Epoch.String() + ")"
	} else {
		title += " (no -epoch set: zero epochs sampled)"
	}
	tb := stats.NewTable(title,
		"workload", "scheme", "epochs", "wq mean", "wq max", "budget util", "drains")
	for w, prof := range fr.Profiles {
		for s := range fr.Schemes {
			res := fr.Results[w][s]
			var epochs int
			var wqMean, wqMax, buMean float64
			if t := res.Telemetry; t != nil {
				epochs = t.Epochs()
				wqMean, wqMax = seriesStats(t.Series("memctrl.write_queue_depth"))
				buMean, _ = seriesStats(t.Series("power.budget_util"))
			}
			tb.AddRow(prof.Name, fr.Schemes[s].Name, epochs, wqMean, wqMax, buMean, res.Ctrl.Drains)
		}
	}
	return tb
}
