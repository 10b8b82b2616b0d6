package exp

import (
	"context"

	"tetriswrite/internal/fault"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/stats"
	"tetriswrite/internal/system"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/workload"
)

// FaultToleranceTable is an extension beyond the paper's evaluation: it
// runs the write-intensive vips profile on a compact working set under a
// deliberately low per-cell endurance (so wear-out appears within a
// simulable write budget) plus a small transient pulse-failure rate, and
// reports how each write scheme fares once the device stops being ideal:
// verify retries, worn (stuck) cells, hard errors, spare-line remaps and
// the bank time burned on verify.
//
// Cell wear is recorded at the array, where writes are differential for
// every scheme (the device's PROG-enable gating drives only changed
// cells), so stuck-cell counts are close across schemes by design —
// what the table discriminates is the recovery machinery itself: how
// much verify-retry and sparing traffic the same failure pressure
// induces under each scheme's scheduling, and what it costs per write.
func FaultToleranceTable(opt Options) (*stats.Table, error) {
	opt.Normalize()
	prof, err := workload.ProfileByName("vips")
	if err != nil {
		return nil, err
	}
	// A compact working set concentrates wear, like EnduranceTable.
	prof.PrivateLines = 32
	prof.SharedLines = 32

	fcfg := fault.Config{
		Seed: opt.Seed,
		// Real PCM endures ~1e8 pulses; a handful here scales wear-out
		// down to a test-sized write budget.
		Endurance:     5,
		EnduranceCV:   0.25,
		TransientRate: 0.001,
	}

	tb := stats.NewTable("Fault tolerance: verify-retry and line sparing by scheme (vips, compact working set)",
		"scheme", "writes", "retries", "transient", "stuck-cells", "hard-errors", "remapped", "verify-ns/write")

	type cfg struct {
		name    string
		factory schemes.Factory
	}
	cfgs := []cfg{
		{"baseline", schemes.NewDCW},
		{"fnw", schemes.NewFlipNWrite},
		{"2stage", schemes.NewTwoStage},
		{"tetris", tetris.New},
	}
	// Every configuration runs the same program: draw its stream once.
	rec, err := workload.Record(context.Background(), prof, opt.Cores, opt.Seed, opt.Params, opt.InstrBudget)
	if err != nil {
		return nil, err
	}
	for _, c := range cfgs {
		cfg := CellConfig(opt)
		cfg.Fault = fcfg
		cfg.SpareLines = 512
		res, err := system.RunRecordedCtx(context.Background(), rec, c.factory, cfg)
		if err != nil {
			return nil, err
		}
		st := res.Ctrl
		verifyPerWrite := 0.0
		if st.Writes > 0 {
			verifyPerWrite = st.VerifyOverhead.Nanoseconds() / float64(st.Writes)
		}
		tb.AddRow(c.name, st.Writes, st.Retries, res.Fault.TransientFailures,
			res.Fault.StuckCells, st.HardErrors, res.Spare.RemappedLines, verifyPerWrite)
	}
	return tb, nil
}
