// Command tetrisbench regenerates the tables and figures of the paper's
// evaluation section.
//
// Usage:
//
//	tetrisbench -all                 # everything
//	tetrisbench -fig 10              # one figure (3, 4, 10, 11, 12, 13, 14)
//	tetrisbench -table 3             # one table (2 or 3)
//	tetrisbench -fig 11 -instr 2000000 -writes 20000 -seed 7
//
// Scale knobs: -writes (chip-level experiments), -instr (per-core
// instruction budget of the full-system experiments), -cores, -seed,
// -line (cache line size, default 64 B). Supervision knobs: -parallel
// (concurrent full-system runs, 1 for one at a time; any value produces
// bit-identical tables), -run-timeout (wall-clock limit per run). Ctrl-C stops the sweep gracefully: completed cells are rendered
// as partial tables before exiting nonzero.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"tetriswrite/internal/exp"
	"tetriswrite/internal/mlc"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/prof"
	"tetriswrite/internal/stats"
	"tetriswrite/internal/units"
	"tetriswrite/internal/version"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "tetrisbench: %v\n", err)
		os.Exit(1)
	}
}

// run executes the harness with the given arguments; separated from main
// for testability.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("tetrisbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig        = fs.Int("fig", 0, "figure to regenerate (3, 4, 10, 11, 12, 13, 14)")
		table      = fs.Int("table", 0, "table to regenerate (2 or 3)")
		all        = fs.Bool("all", false, "regenerate every table and figure")
		writes     = fs.Int("writes", 5000, "line writes sampled per workload (figures 3, 10)")
		instr      = fs.Int64("instr", 1_000_000, "per-core instruction budget (figures 11-14)")
		cores      = fs.Int("cores", 4, "number of cores")
		seed       = fs.Int64("seed", 1, "workload seed")
		par        = fs.Int("parallel", 0, "concurrent full-system simulations (0 = all CPUs, 1 = one at a time; tables are bit-identical at any value)")
		runTO      = fs.Duration("run-timeout", 0, "wall-clock limit per full-system simulation, e.g. 5m (0 = none)")
		schemeList = fs.String("schemes", "", "comma-separated scheme names for the full-system figures (registry names or aliases, composable with +remap, e.g. conventional,baseline,tetris+remap); empty = the paper set; the first is the normalization baseline")
		energy     = fs.Bool("energy", false, "also print the energy-per-write table with the full-system figures")
		sweep      = fs.String("sweep", "", "extra sweep beyond the paper: 'line' (64/128/256 B) or 'budget' (32..4)")
		endur      = fs.Bool("endurance", false, "also run the endurance (wear leveling) table")
		faults     = fs.Bool("faults", false, "also run the fault-tolerance (verify-retry + line sparing) table")
		check      = fs.Bool("check", false, "verify the paper's qualitative claims and print a reproduction certificate")
		plot       = fs.Bool("plot", false, "render figures as bar charts instead of tables")
		tail       = fs.Bool("tail", false, "also print the P99 read latency table with the full-system figures")
		seeds      = fs.Int("seeds", 0, "run the seed-robustness sweep over this many seeds")
		csv        = fs.Bool("csv", false, "render figures as CSV instead of tables")
		mlcCmp     = fs.Bool("mlc", false, "print the SLC-vs-MLC write-time comparison (background section)")
		line       = fs.Int("line", 64, "cache line size in bytes (128/256 model POWER7/zEnterprise)")

		crashEvery = fs.Int64("crash-every", 0, "run the crash-consistency sweep: cut power at every Kth pulse boundary of every (workload, scheme) cell, recover, resume, and print the recovery classification table")
		crashCuts  = fs.Int("crash-cuts", 0, "cap on cut points per cell of the crash sweep, subsampled evenly (0 = 8)")

		epochStr   = fs.String("epoch", "", "attach epoch telemetry to the full-system figures and print the per-scheme summary, e.g. 10us")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		showVer    = fs.Bool("version", false, "print build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVer {
		fmt.Fprintln(stdout, version.String("tetrisbench"))
		return nil
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()

	switch {
	case *instr <= 0:
		return fmt.Errorf("-instr %d: instruction budget must be positive", *instr)
	case *cores <= 0:
		return fmt.Errorf("-cores %d: need at least one core", *cores)
	case *writes <= 0:
		return fmt.Errorf("-writes %d: write sample count must be positive", *writes)
	case *par < 0:
		return fmt.Errorf("-parallel %d: worker count cannot be negative", *par)
	case *runTO < 0:
		return fmt.Errorf("-run-timeout %v: cannot be negative", *runTO)
	case *seeds < 0:
		return fmt.Errorf("-seeds %d: seed count cannot be negative", *seeds)
	case *crashEvery < 0:
		return fmt.Errorf("-crash-every %d: cut interval cannot be negative", *crashEvery)
	case *crashCuts < 0:
		return fmt.Errorf("-crash-cuts %d: cut cap cannot be negative", *crashCuts)
	}
	opt := exp.Options{
		Params:      pcm.DefaultParams(),
		Writes:      *writes,
		InstrBudget: *instr,
		Cores:       *cores,
		Seed:        *seed,
		Parallel:    *par,
		RunTimeout:  *runTO,
	}
	opt.Params.LineBytes = *line
	if err := opt.Params.Validate(); err != nil {
		return fmt.Errorf("-line %d: %w", *line, err)
	}
	if *schemeList != "" {
		for _, n := range strings.Split(*schemeList, ",") {
			if n = strings.TrimSpace(n); n != "" {
				opt.Schemes = append(opt.Schemes, n)
			}
		}
		// Fail fast on typos, before any simulation work.
		if _, err := exp.ResolveSchemes(opt.Schemes); err != nil {
			return fmt.Errorf("-schemes: %w", err)
		}
	}
	if *epochStr != "" {
		epoch, err := units.ParseDuration(*epochStr)
		if err != nil {
			return fmt.Errorf("-epoch: %w", err)
		}
		opt.Epoch = epoch
	}

	if *check {
		results, err := exp.CheckShapes(opt)
		if err != nil {
			return err
		}
		failed := 0
		for _, r := range results {
			status := "PASS"
			if !r.OK {
				status = "FAIL"
				failed++
			}
			fmt.Fprintf(stdout, "%s  %-55s %s\n", status, r.Name, r.Detail)
		}
		if failed > 0 {
			return fmt.Errorf("%d of %d reproduction checks failed", failed, len(results))
		}
		fmt.Fprintf(stdout, "all %d reproduction checks passed\n", len(results))
		return nil
	}

	if *crashEvery > 0 {
		copt := exp.CrashSweepOptions{Options: opt, Every: *crashEvery, MaxCuts: *crashCuts}
		res, err := exp.CrashSweep(copt)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, res.Table())
		return nil
	}
	if *crashCuts != 0 {
		return fmt.Errorf("-crash-cuts needs -crash-every")
	}

	if *mlcCmp {
		printMLC(stdout, opt)
	}

	if !*all && *fig == 0 && *table == 0 && *sweep == "" && !*endur && !*faults && *seeds == 0 && !*mlcCmp {
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -all, -fig N, -table N, -sweep, -endurance, -faults or -seeds")
	}

	needFull := *all || (*fig >= 11 && *fig <= 14)
	if opt.Epoch > 0 && !needFull {
		return fmt.Errorf("-epoch only applies to the full-system figures; add -all or -fig 11..14")
	}
	// sweepErr carries an interrupted or partially failed sweep: the
	// tables render with whatever cells completed and the process still
	// exits nonzero.
	var fr *exp.FullResults
	var sweepErr error
	if needFull {
		fr, sweepErr = exp.RunFullSystemCtx(ctx, opt)
		if fr == nil {
			return sweepErr
		}
		if sweepErr != nil {
			total := len(fr.Profiles) * len(fr.Schemes)
			done := total - fr.Failed()
			if done == 0 {
				return sweepErr
			}
			fmt.Fprintf(stderr, "tetrisbench: sweep incomplete (%d of %d cells finished): %v\n",
				done, total, sweepErr)
			fmt.Fprintf(stderr, "tetrisbench: rendering partial tables from the completed cells\n")
		}
	}

	show := func(n int) bool { return *all || *fig == n }
	showTable := func(n int) bool { return *all || *table == n }
	render := func(t *stats.Table) {
		switch {
		case *plot:
			fmt.Fprintln(stdout, stats.FromTable(t))
		case *csv:
			fmt.Fprint(stdout, t.CSV())
		default:
			fmt.Fprintln(stdout, t)
		}
	}

	if *seeds > 0 {
		list := make([]int64, *seeds)
		for i := range list {
			list[i] = opt.Seed + int64(i)
		}
		tb, err := exp.SeedSpread(opt, list)
		if err != nil {
			return err
		}
		render(tb)
		return nil
	}

	if showTable(2) {
		printTable2(stdout)
	}
	if showTable(3) {
		render(exp.Table3(opt))
	}
	if show(3) {
		render(exp.Figure3(opt))
	}
	if show(4) {
		fmt.Fprintln(stdout, exp.Figure4(pcm.DefaultParams()))
	}
	if show(10) {
		render(exp.Figure10(opt))
	}
	if show(11) {
		render(fr.Figure11())
	}
	if show(12) {
		render(fr.Figure12())
	}
	if show(13) {
		render(fr.Figure13())
	}
	if show(14) {
		render(fr.Figure14())
	}
	if needFull && (*energy || *all) {
		render(fr.EnergyTable())
	}
	if needFull && (*tail || *all) {
		render(fr.TailLatency())
	}
	if needFull && opt.Epoch > 0 {
		render(fr.EpochSummary())
	}
	switch *sweep {
	case "":
	case "line":
		render(exp.LineSizeSweep(opt))
	case "budget":
		render(exp.BudgetSweep(opt))
	default:
		return fmt.Errorf("unknown sweep %q (line or budget)", *sweep)
	}
	if *all {
		render(exp.LineSizeSweep(opt))
		render(exp.BudgetSweep(opt))
	}
	if (*endur || *all) && ctx.Err() == nil {
		tb, err := exp.EnduranceTable(opt)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, tb)
	}
	if (*faults || *all) && ctx.Err() == nil {
		tb, err := exp.FaultToleranceTable(opt)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, tb)
	}
	return sweepErr
}

// printMLC prints the SLC-vs-MLC comparison backing the paper's "we
// focus on SLC PCM for its better write performance".
func printMLC(w io.Writer, opt exp.Options) {
	rng := rand.New(rand.NewSource(opt.Seed))
	bits := make([]bool, 512)
	for i := range bits {
		bits[i] = rng.Intn(2) == 0
	}
	cmp, err := mlc.CompareSLC(mlc.DefaultParams(), bits)
	if err != nil {
		fmt.Fprintf(w, "mlc comparison failed: %v\n", err)
		return
	}
	fmt.Fprintln(w, "== SLC vs MLC: storing one 64 B line (512 random bits) ==")
	fmt.Fprintf(w, "SLC: %4d cells, %v serialized programming time\n", cmp.SLCCells, cmp.SLCTime)
	fmt.Fprintf(w, "MLC: %4d cells, %v (%d partial pulses, %d verifies)\n",
		cmp.MLCCells, cmp.MLCTime, cmp.MLCPartial, cmp.MLCVerifies)
	fmt.Fprintf(w, "MLC/SLC time ratio: %.2fx — the reason the paper's scheduling problem is posed for SLC\n\n",
		float64(cmp.MLCTime)/float64(cmp.SLCTime))
}

// printTable2 prints the simulation parameters (the paper's Table II) as
// configured in this build.
func printTable2(w io.Writer) {
	p := pcm.DefaultParams()
	fmt.Fprintln(w, "== Table II: parameters of simulation ==")
	fmt.Fprintf(w, "CPU                  4-core, 2 GHz, blocking-read cores\n")
	fmt.Fprintf(w, "Cache line           %d B\n", p.LineBytes)
	fmt.Fprintf(w, "Memory controller    FRFCFS read-priority, 32-entry R/W queues, write drain on full\n")
	fmt.Fprintf(w, "Memory organization  %d GB SLC PCM, single rank, %d banks\n", p.CapacityBytes>>30, p.NumBanks)
	fmt.Fprintf(w, "PCM organization     %d x X%d chips per bank, %d B write unit\n",
		p.NumChips, p.ChipWidthBits, p.WriteUnitBytes())
	fmt.Fprintf(w, "Memory timing        READ %v, RESET %v, SET %v (K=%d)\n", p.TRead, p.TReset, p.TSet, p.K())
	fmt.Fprintf(w, "Memory energy        RESET current / SET current = %d (L)\n", p.L())
	fmt.Fprintf(w, "Power budget         %d SET-currents per chip (%d per bank), GCP %v\n",
		p.ChipBudget, p.BankBudget(), p.GlobalChargePump)
	fmt.Fprintln(w)
}
