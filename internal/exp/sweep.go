package exp

import (
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/stats"
)

// LineSizeSweep quantifies the paper's motivating observation about
// growing last-level cache lines (64 B commodity, 128 B POWER7, 256 B
// zEnterprise): the number of serial write units per line write for every
// scheme at each line size, averaged across the 8 workloads. The static
// schemes scale linearly with the line; Tetris Write scales with the
// actual changed bits.
func LineSizeSweep(opt Options) *stats.Table {
	return paramSweep(opt, "Line-size sweep: average write units per line write", "line",
		[]int{64, 128, 256}, func(p *pcm.Params, v int) { p.LineBytes = v })
}

// BudgetSweep is the mobile scenario of the paper's introduction: the
// per-chip power budget shrinks from 32 SET-currents down to 4 (the
// "4 and 2 bits" division-write regime), and the write units per line
// grow for every scheme — least for Tetris Write.
func BudgetSweep(opt Options) *stats.Table {
	return paramSweep(opt, "Power-budget sweep: average write units per line write", "budget",
		[]int{32, 16, 8, 4}, func(p *pcm.Params, v int) { p.ChipBudget = v })
}

// paramSweep renders one row per value of a device parameter: the
// write units per line write of every paper scheme, averaged across the
// workloads, with set applying the value to the parameters.
func paramSweep(opt Options, title, param string, values []int, set func(*pcm.Params, int)) *stats.Table {
	opt.Normalize()
	tb := stats.NewTable(title, append([]string{param}, names(SchemeSet())...)...)
	for _, v := range values {
		o := opt
		set(&o.Params, v)
		tb.AddRow(labelled(v, columnMeans(writeUnitGrid(o)))...)
	}
	return tb
}
