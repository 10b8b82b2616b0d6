package exp

import (
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/stats"
	"tetriswrite/internal/system"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/workload"
)

// EnduranceTable is an extension beyond the paper's evaluation: PCM cells
// die after a bounded number of bit-writes, so lifetime is set by the
// hottest cell. Write schemes reduce how many cells each write programs
// (DCW/Tetris pulse only changed bits), Start-Gap wear leveling spreads
// where they land; the table quantifies both effects and their
// composition on the most write-intensive workload. The lifetime factor
// is the baseline-without-leveling max line wear divided by each
// configuration's max line wear (higher is better).
func EnduranceTable(opt Options) (*stats.Table, error) {
	opt.Normalize()
	prof, err := workload.ProfileByName("vips")
	if err != nil {
		return nil, err
	}
	// A compact working set concentrates wear so the table converges at
	// modest instruction budgets.
	prof.PrivateLines = 512
	prof.SharedLines = 512

	tb := stats.NewTable("Endurance: per-line wear by scheme and wear leveling (vips, compact working set)",
		"config", "bit-writes", "max-line", "mean-line", "gap-moves", "lifetime")

	type cfg struct {
		name    string
		factory schemes.Factory
		psi     int
	}
	cfgs := []cfg{
		{"baseline", schemes.NewDCW, 0},
		{"baseline+sg", schemes.NewDCW, 100},
		{"2stage", schemes.NewTwoStage, 0},
		{"tetris", tetris.New, 0},
		{"tetris+sg", tetris.New, 100},
	}
	var baseMax int64
	for i, c := range cfgs {
		cfg := CellConfig(opt)
		cfg.WearLevelPsi = c.psi
		cfg.TrackWear = true
		res, err := system.Run(prof, c.factory, cfg)
		if err != nil {
			return nil, err
		}
		w := res.Wear
		if i == 0 {
			baseMax = w.MaxLineWear
		}
		moves := int64(0)
		if res.Remap != nil {
			moves = res.Remap.GapMoves
		}
		lifetime := 0.0
		if w.MaxLineWear > 0 {
			lifetime = float64(baseMax) / float64(w.MaxLineWear)
		}
		tb.AddRow(c.name, w.TotalBitWrites, w.MaxLineWear, w.MeanLineWear, moves, lifetime)
	}
	return tb, nil
}
