// Package exp is the experiment harness: one function per table and
// figure of the paper's evaluation section, each returning a plain-text
// table with the same rows and series the paper plots. Absolute numbers
// differ from the paper's GEM5 testbed; the shapes — who wins, by what
// factor, where the workload-dependent crossovers fall — are what these
// runners reproduce.
package exp

import (
	"context"
	"runtime"
	"time"

	"tetriswrite/internal/bitutil"
	"tetriswrite/internal/linestore"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/runner"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/stats"
	"tetriswrite/internal/system"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/units"
	"tetriswrite/internal/workload"
)

// NamedFactory pairs a scheme factory with its display name, in the
// paper's comparison order.
type NamedFactory struct {
	Name    string
	Factory schemes.Factory
}

// SchemeSet returns the compared schemes in paper order: the DCW baseline
// first, then Flip-N-Write, 2-Stage-Write, Three-Stage-Write and Tetris
// Write.
func SchemeSet() []NamedFactory {
	return []NamedFactory{
		{"baseline", schemes.NewDCW},
		{"fnw", schemes.NewFlipNWrite},
		{"2stage", schemes.NewTwoStage},
		{"3stage", schemes.NewThreeStage},
		{"tetris", tetris.New},
	}
}

// Options configure the harness.
type Options struct {
	Params pcm.Params
	// Schemes selects the swept schemes by name — paper table labels
	// ("baseline", "2stage"), registry canonical names or composed
	// registry names ("dcw+flipmin", "adaptive") — resolved through
	// ResolveSchemes. Empty selects the full paper SchemeSet. The first
	// scheme is the normalization baseline of every figure table.
	Schemes []string
	// Writes is the number of line writes sampled per workload by the
	// chip-level experiments (Figures 3 and 10). Default 2000.
	Writes int
	// InstrBudget is the per-core instruction budget of the full-system
	// experiments (Figures 11-14). Default 400k.
	InstrBudget int64
	Cores       int
	Seed        int64
	// Sequential forces full-system simulations to run one at a time
	// (results are deterministic either way); equivalent to Parallel: 1.
	Sequential bool
	// Parallel is the number of concurrent full-system simulations;
	// 0 means GOMAXPROCS. Every cell owns its seeded state, so any
	// degree of parallelism produces bit-identical tables.
	Parallel int
	// RunTimeout bounds each full-system simulation's wall-clock time;
	// 0 means unlimited. A timed-out cell is reported in FullResults.Errs
	// and its partial statistics kept.
	RunTimeout time.Duration
	// Epoch, when positive, attaches the telemetry sampler to every
	// full-system run so EpochSummary can report time-series behaviour
	// per workload and scheme.
	Epoch units.Duration
}

// Normalize fills defaults.
func (o *Options) Normalize() {
	if o.Params.LineBytes == 0 {
		o.Params = pcm.DefaultParams()
	}
	if o.Writes <= 0 {
		o.Writes = 2000
	}
	if o.InstrBudget <= 0 {
		o.InstrBudget = 400_000
	}
	if o.Cores <= 0 {
		o.Cores = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// writeStream replays a workload's write stream: for every sampled write
// it yields the stored (old) and incoming (new) line images, maintaining
// a device shadow exactly like the full-system simulator would.
func writeStream(prof workload.Profile, opt Options, fn func(addr pcm.LineAddr, old, new []byte)) {
	prog := workload.NewProgram(prof, opt.Cores, opt.Seed, opt.Params)
	gens := make([]*workload.Generator, opt.Cores)
	for i := range gens {
		gens[i] = prog.Generator(i)
	}
	device := linestore.NewStore(linestore.Words(opt.Params.LineBytes))
	oldBuf := make([]byte, opt.Params.LineBytes)
	stored := func(addr pcm.LineAddr) []byte {
		w := device.Get(int64(addr))
		if w == nil {
			w = device.Ensure(int64(addr))
			linestore.PackLine(w, prog.InitialContents(addr))
		}
		linestore.UnpackLine(oldBuf, w)
		return oldBuf
	}
	writes := 0
	for writes < opt.Writes {
		for _, g := range gens {
			op := g.Next()
			if !op.Write {
				continue
			}
			old := stored(op.Addr)
			fn(op.Addr, old, op.Data)
			linestore.PackLine(device.Ensure(int64(op.Addr)), op.Data)
			writes++
			if writes >= opt.Writes {
				return
			}
		}
	}
}

// Figure3 measures the number of RESET and SET operations per 64-bit
// data unit after inversion coding, per workload — the paper's
// motivating observation (avg ~9.6 bit-writes, SET-dominant).
func Figure3(opt Options) *stats.Table {
	opt.Normalize()
	tb := stats.NewTable("Figure 3: RESET/SET operations per 64-bit data unit (after inversion)",
		"workload", "RESET", "SET", "total")
	var allR, allS []float64
	nc := opt.Params.NumChips
	nu := opt.Params.DataUnits()
	wbits := opt.Params.ChipWidthBits
	wb := wbits / 8
	for _, prof := range workload.Profiles() {
		// Count as the Tetris read stage does: per chip slice,
		// inversion then transition counting; aggregate to 64-bit units.
		flips := linestore.NewStore(1)
		var sets, resets, unitsSeen float64
		writeStream(prof, opt, func(addr pcm.LineAddr, old, new []byte) {
			slot := flips.Ensure(int64(addr))
			fw := slot[0]
			for u := 0; u < nu; u++ {
				for c := 0; c < nc; c++ {
					bit := uint(u*nc + c)
					lo := bitutil.ChipSlice(old, nc, wb, c, u)
					stored := flipWord(lo, fw&(1<<bit) != 0, wbits)
					enc, tr, _, _ := bitutil.FlipTransition(stored, bitutil.ChipSlice(new, nc, wb, c, u), wbits)
					if enc.Flip {
						fw |= 1 << bit
					} else {
						fw &^= 1 << bit
					}
					sets += float64(tr.NumSets())
					resets += float64(tr.NumResets())
				}
				unitsSeen++
			}
			slot[0] = fw
		})
		r := resets / unitsSeen
		s := sets / unitsSeen
		allR = append(allR, r)
		allS = append(allS, s)
		tb.AddRow(prof.Name, r, s, r+s)
	}
	tb.AddRow("average", stats.Mean(allR), stats.Mean(allS), stats.Mean(allR)+stats.Mean(allS))
	return tb
}

// Table3 reports the workload characteristics: domain, sharing level and
// the configured RPKI/WPKI (which the generators reproduce to within
// sampling noise; see the workload package tests).
func Table3(opt Options) *stats.Table {
	opt.Normalize()
	tb := stats.NewTable("Table III: multi-threaded workloads",
		"program", "domain", "sharing", "RPKI", "WPKI")
	for _, p := range workload.Profiles() {
		tb.AddRow(p.Name, p.Domain, p.Sharing, p.RPKI, p.WPKI)
	}
	return tb
}

// MeasureWriteUnits replays opt.Writes cache-line writes of one workload
// through a scheme and returns the mean write units per write — the
// Figure 10 measurement for one (workload, scheme) cell, also used by the
// ablation benchmarks.
func MeasureWriteUnits(prof workload.Profile, s schemes.Scheme, opt Options) float64 {
	opt.Normalize()
	var wu float64
	var n int
	writeStream(prof, opt, func(addr pcm.LineAddr, old, new []byte) {
		plan := s.PlanWrite(addr, old, new)
		wu += plan.WriteUnits()
		n++
	})
	if n == 0 {
		return 0
	}
	return wu / float64(n)
}

// Figure10 measures the average number of write units per cache-line
// write for every scheme and workload: the paper's central chip-level
// result (baseline 8, FNW 4, 2-Stage 3, Three-Stage 2.5, Tetris
// 1.06-1.46).
func Figure10(opt Options) *stats.Table {
	opt.Normalize()
	tb := stats.NewTable("Figure 10: average number of write units",
		append([]string{"workload"}, names(SchemeSet())...)...)
	grid := writeUnitGrid(opt)
	for w, prof := range workload.Profiles() {
		tb.AddRow(labelled(prof.Name, grid[w])...)
	}
	tb.AddRow(labelled("average", columnMeans(grid))...)
	return tb
}

// writeUnitGrid runs MeasureWriteUnits for every workload (rows, in
// Profiles order) under every paper scheme (columns, in SchemeSet
// order): the one measurement loop behind Figure 10 and the line-size
// and budget sweeps.
func writeUnitGrid(opt Options) [][]float64 {
	set := SchemeSet()
	profiles := workload.Profiles()
	grid := make([][]float64, len(profiles))
	for w, prof := range profiles {
		grid[w] = make([]float64, len(set))
		for s, nf := range set {
			grid[w][s] = MeasureWriteUnits(prof, nf.Factory(opt.Params), opt)
		}
	}
	return grid
}

// columnMeans averages a grid's rows column by column.
func columnMeans(grid [][]float64) []float64 {
	means := make([]float64, len(grid[0]))
	for s := range means {
		for _, row := range grid {
			means[s] += row[s]
		}
		means[s] /= float64(len(grid))
	}
	return means
}

// labelled makes a table row of a label followed by values.
func labelled(label any, values []float64) []any {
	row := make([]any, 0, len(values)+1)
	row = append(row, label)
	for _, v := range values {
		row = append(row, v)
	}
	return row
}

// FullResults holds every full-system simulation of the sweep, indexed
// [workload][scheme] in Profiles()/SchemeSet() order.
type FullResults struct {
	Options  Options
	Profiles []workload.Profile
	Schemes  []NamedFactory
	Results  [][]system.Result

	// Errs mirrors Results: a non-nil entry means that cell failed (or
	// was skipped after a cancellation) and its Results entry holds only
	// the partial statistics gathered before the abort. All nil on a
	// clean sweep.
	Errs [][]error
}

// Failed counts the cells that did not complete.
func (fr *FullResults) Failed() int {
	n := 0
	for _, row := range fr.Errs {
		for _, err := range row {
			if err != nil {
				n++
			}
		}
	}
	return n
}

// workers resolves the configured degree of parallelism.
func (o Options) workers() int {
	switch {
	case o.Sequential:
		return 1
	case o.Parallel > 0:
		return o.Parallel
	default:
		return runtime.GOMAXPROCS(0)
	}
}

// RunFullSystem simulates all 8 workloads under all 5 schemes — the
// sweep behind Figures 11, 12, 13 and 14.
func RunFullSystem(opt Options) (*FullResults, error) {
	return RunFullSystemCtx(context.Background(), opt)
}

// RunFullSystemCtx runs the sweep under a context through the runner
// supervisor: cells fan out across Options.workers() workers with
// per-cell panic isolation and wall-clock timeout, and each stores its
// Result straight into the matrix. On cancellation or per-cell failure
// the sweep still returns the FullResults holding every completed cell
// (failures marked in Errs) alongside the first error — callers render
// partial tables instead of discarding finished work.
func RunFullSystemCtx(ctx context.Context, opt Options) (*FullResults, error) {
	schemeSet, err := ResolveSchemes(opt.Schemes)
	if err != nil {
		return nil, err
	}
	fr := NewFullResults(opt, workload.Profiles(), schemeSet)
	cfg := CellConfig(fr.Options)
	jobs := make([]runner.Job[struct{}], 0, len(fr.Profiles)*len(fr.Schemes))
	for w, prof := range fr.Profiles {
		for s, nf := range fr.Schemes {
			jobs = append(jobs, runner.Job[struct{}]{
				Name: prof.Name + "/" + nf.Name,
				Run: func(ctx context.Context) (struct{}, error) {
					// Each job writes only its own cell.
					res, err := system.RunCtx(ctx, prof, nf.Factory, cfg)
					fr.SetCell(w, s, res, err)
					return struct{}{}, err
				},
			})
		}
	}
	results := runner.All(ctx, jobs, runner.Options{
		Workers:    fr.Options.workers(),
		JobTimeout: fr.Options.RunTimeout,
	})
	for k, r := range results {
		if r.Err != nil {
			// Also marks the cells that panicked or never ran, whose
			// Results stay zero apart from their labels.
			w, s := k/len(fr.Schemes), k%len(fr.Schemes)
			fr.SetCell(w, s, fr.Results[w][s], r.Err)
		}
	}
	return fr, runner.FirstErr(results)
}

// CellConfig is the system.Config of one full-system grid cell under
// opt — the single mapping from harness options to a simulation, shared
// by the sweep, the fleet's shard runner and the extension tables,
// which set their own fields on top. It applies no defaults: callers
// pass normalized options, or fields the simulator defaults itself.
func CellConfig(opt Options) system.Config {
	return system.Config{
		Params:      opt.Params,
		Cores:       opt.Cores,
		InstrBudget: opt.InstrBudget,
		Seed:        opt.Seed,
		Epoch:       opt.Epoch,
	}
}

// normalizedTable renders one metric normalized to the baseline scheme
// (column 0), with a geometric-mean summary row.
func (fr *FullResults) normalizedTable(title string, metric func(system.Result) float64) *stats.Table {
	cols := append([]string{"workload"}, names(fr.Schemes)...)
	tb := stats.NewTable(title, cols...)
	sums := make([][]float64, len(fr.Schemes))
	for w, prof := range fr.Profiles {
		base := metric(fr.Results[w][0])
		row := []any{prof.Name}
		for s := range fr.Schemes {
			v := metric(fr.Results[w][s])
			norm := 0.0
			if base != 0 && v != 0 {
				norm = v / base
			}
			sums[s] = append(sums[s], norm)
			row = append(row, norm)
		}
		tb.AddRow(row...)
	}
	avg := []any{"geomean"}
	for s := range fr.Schemes {
		avg = append(avg, stats.GeoMean(sums[s]))
	}
	tb.AddRow(avg...)
	return tb
}

// Figure11 renders read latency normalized to the baseline (lower is
// better; the paper reports Tetris at ~0.35 of baseline on average).
func (fr *FullResults) Figure11() *stats.Table {
	return fr.normalizedTable("Figure 11: read latency (normalized to baseline)",
		func(r system.Result) float64 { return float64(r.ReadLatency) })
}

// Figure12 renders write latency normalized to the baseline.
func (fr *FullResults) Figure12() *stats.Table {
	return fr.normalizedTable("Figure 12: write latency (normalized to baseline)",
		func(r system.Result) float64 { return float64(r.WriteLatency) })
}

// Figure13 renders IPC improvement over the baseline (higher is better;
// the paper reports 1.4X/1.6X/1.8X/2X for FNW/2SW/3SW/Tetris).
func (fr *FullResults) Figure13() *stats.Table {
	return fr.normalizedTable("Figure 13: IPC improvement over baseline",
		func(r system.Result) float64 { return r.IPC })
}

// Figure14 renders application running time normalized to the baseline.
func (fr *FullResults) Figure14() *stats.Table {
	return fr.normalizedTable("Figure 14: running time (normalized to baseline)",
		func(r system.Result) float64 { return float64(r.RunningTime) })
}

// EnergyTable is an extension beyond the paper's figures: per-write
// programming energy normalized to the baseline, backing Table I's
// energy-reduction claims with numbers.
func (fr *FullResults) EnergyTable() *stats.Table {
	return fr.normalizedTable("Energy per write (normalized to baseline)",
		func(r system.Result) float64 { return r.EnergyPerWrite })
}

func names(set []NamedFactory) []string {
	out := make([]string, len(set))
	for i, nf := range set {
		out[i] = nf.Name
	}
	return out
}

// TailLatency renders the 99th-percentile memory read latency per
// workload and scheme — queueing tails are where slow writes hurt most,
// and the histogram resolution (~26% per bucket) is plenty to rank
// schemes.
func (fr *FullResults) TailLatency() *stats.Table {
	cols := append([]string{"workload"}, names(fr.Schemes)...)
	tb := stats.NewTable("P99 read latency (ns)", cols...)
	for w, prof := range fr.Profiles {
		row := []any{prof.Name}
		for s := range fr.Schemes {
			st := fr.Results[w][s].Ctrl
			row = append(row, st.ReadLatency.Percentile(99).Nanoseconds())
		}
		tb.AddRow(row...)
	}
	return tb
}

// SeedSpread quantifies the robustness of the headline conclusion (IPC
// improvement, Figure 13) across workload seeds: for each scheme, the
// geomean IPC improvement's mean, minimum and maximum over n seeds. The
// orderings reported in EXPERIMENTS.md must hold for every seed, not
// just the default one.
func SeedSpread(opt Options, seeds []int64) (*stats.Table, error) {
	opt.Normalize()
	set, err := ResolveSchemes(opt.Schemes)
	if err != nil {
		return nil, err
	}
	perScheme := make([][]float64, len(set))
	for _, seed := range seeds {
		o := opt
		o.Seed = seed
		fr, err := RunFullSystem(o)
		if err != nil {
			return nil, err
		}
		for s := range set {
			var ratios []float64
			for w := range fr.Profiles {
				base := fr.Results[w][0].IPC
				if base > 0 {
					ratios = append(ratios, fr.Results[w][s].IPC/base)
				}
			}
			perScheme[s] = append(perScheme[s], stats.GeoMean(ratios))
		}
	}
	tb := stats.NewTable("IPC improvement across seeds (geomean; mean/min/max)",
		"scheme", "mean", "min", "max")
	for s, nf := range set {
		vals := perScheme[s]
		min, max := vals[0], vals[0]
		for _, v := range vals {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		tb.AddRow(nf.Name, stats.Mean(vals), min, max)
	}
	return tb, nil
}
