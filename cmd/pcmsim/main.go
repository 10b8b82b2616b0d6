// Command pcmsim runs one full-system simulation: one workload, one
// write scheme, and prints the measured latencies, IPC, energy and
// running time.
//
// Usage:
//
//	pcmsim -workload vips -scheme tetris
//	pcmsim -workload canneal -scheme 3stage -instr 2000000 -budget 16
//	pcmsim -workload dedup -scheme tetris -trace dedup.trace
//
// With -trace, operations are replayed from a trace file produced by
// tracegen instead of being generated on the fly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"tetriswrite/internal/crash"
	"tetriswrite/internal/fault"
	"tetriswrite/internal/guard"
	"tetriswrite/internal/memctrl"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/prof"
	"tetriswrite/internal/registry"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/system"
	"tetriswrite/internal/trace"
	"tetriswrite/internal/units"
	"tetriswrite/internal/version"
	"tetriswrite/internal/workload"
)

// Scheme names resolve through the shared registry: the six schemes,
// their aliases ("baseline", "2stage") and names composed with the remap
// decorator ("tetris+remap"). Unknown names fail with the sorted
// catalogue before anything runs.

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "pcmsim: %v\n", err)
		os.Exit(1)
	}
}

// run executes one simulation with the given arguments; separated from
// main for testability.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("pcmsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl        = fs.String("workload", "vips", "workload: one of the 8 PARSEC profiles")
		scheme    = fs.String("scheme", "tetris", "write scheme: a registry name (conventional|dcw|fnw|2stage|3stage|tetris, or an alias such as baseline), composable with +remap")
		instr     = fs.Int64("instr", 1_000_000, "instructions per core")
		coresN    = fs.Int("cores", 4, "number of cores")
		seed      = fs.Int64("seed", 1, "workload seed")
		budget    = fs.Int("budget", 32, "per-chip power budget in SET currents (mobile: 4-16)")
		gcp       = fs.Bool("gcp", true, "enable the global charge pump (bank-wide budget sharing)")
		lineBytes = fs.Int("line", 64, "cache line size in bytes")
		banks     = fs.Int("banks", 8, "PCM banks")
		subarrays = fs.Int("subarrays", 1, "subarrays per bank (reads overlap writes when > 1)")
		pausing   = fs.Bool("pausing", false, "let reads pause in-flight writes")
		traceFile = fs.String("trace", "", "replay operations from this trace file")

		faultSeed  = fs.Int64("fault-seed", 0, "seed for the deterministic fault injector (default: workload seed)")
		endurance  = fs.Int64("endurance", 0, "mean per-cell endurance in pulses; 0 disables wear-out")
		endurCV    = fs.Float64("endurance-cv", 0, "coefficient of variation of per-cell endurance (needs -endurance)")
		transient  = fs.Float64("transient-rate", 0, "per-pulse transient write-failure probability in [0,1)")
		verifyN    = fs.Int("verify-retries", 0, "re-pulse budget before a failed write escalates to a hard error (default 3)")
		spareLines = fs.Int("spare", 0, "lines reserved as spares for hard-error remapping (default 64 when faults are on)")

		crashAt = fs.Int64("crash-at", 0, "cut power at the Nth pulse boundary, run crash recovery on the surviving image, and print the recovery report")

		runTO      = fs.Duration("run-timeout", 0, "wall-clock limit for the simulation, e.g. 5m (0 = none)")
		maxEvents  = fs.Uint64("max-events", 0, "abort after this many simulation events (0 = unlimited)")
		maxSimStr  = fs.String("max-simtime", "", "abort past this much simulated time, e.g. 100us (empty = unlimited)")
		guardOn    = fs.Bool("guard", false, "enable the runtime invariant guard (power, coverage, queues, clock)")
		deepChecks = fs.Bool("deep-checks", false, "with -guard, replay every plan on a shadow cell array (exhaustive)")

		useCaches  = fs.Bool("caches", false, "interpose the Table II cache hierarchy between cores and memory")
		epochStr   = fs.String("epoch", "", "telemetry sampling interval, e.g. 10us (off when empty)")
		metricsOut = fs.String("metrics-out", "", "directory for telemetry exports: per-series CSV, epochs.jsonl, metrics.prom (needs -epoch)")
		jsonOut    = fs.Bool("json", false, "print the report as JSON instead of text")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		showVer    = fs.Bool("version", false, "print build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVer {
		fmt.Fprintln(stdout, version.String("pcmsim"))
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

	// Zero means "use the default" to system.Config, so the flags whose
	// zero is nonsense reject it here; system.Config.Validate owns every
	// other rule.
	switch {
	case *instr <= 0:
		return fmt.Errorf("-instr %d: instruction budget must be positive", *instr)
	case *coresN <= 0:
		return fmt.Errorf("-cores %d: need at least one core", *coresN)
	case *subarrays <= 0:
		return fmt.Errorf("-subarrays %d: need at least one subarray", *subarrays)
	}
	if *runTO < 0 {
		return fmt.Errorf("-run-timeout %v: cannot be negative", *runTO)
	}

	var epoch units.Duration
	if *epochStr != "" {
		var perr error
		if epoch, perr = units.ParseDuration(*epochStr); perr != nil {
			return fmt.Errorf("-epoch: %w", perr)
		}
	}
	var maxSim units.Duration
	if *maxSimStr != "" {
		var perr error
		if maxSim, perr = units.ParseDuration(*maxSimStr); perr != nil {
			return fmt.Errorf("-max-simtime: %w", perr)
		}
	}
	if *metricsOut != "" && epoch == 0 {
		return fmt.Errorf("-metrics-out needs -epoch to produce any samples")
	}

	entry, err := registry.Default().Resolve(*scheme)
	if err != nil {
		return err
	}
	factory := entry.Factory
	prof, err := workload.ProfileByName(*wl)
	if err != nil {
		return err
	}

	par := pcm.DefaultParams()
	par.ChipBudget = *budget
	par.GlobalChargePump = *gcp
	par.LineBytes = *lineBytes
	par.NumBanks = *banks
	ctrlCfg := memctrl.Config{Subarrays: *subarrays, WritePausing: *pausing, VerifyRetries: *verifyN}

	fcfg := fault.Config{
		Seed:          *faultSeed,
		Endurance:     *endurance,
		EnduranceCV:   *endurCV,
		TransientRate: *transient,
	}
	if fcfg.Seed == 0 {
		fcfg.Seed = *seed
	}
	if !fcfg.Enabled() {
		// Flags that only matter under faults are a likely mistake when no
		// failure mode is configured; say so instead of silently ignoring.
		var orphans []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "fault-seed", "endurance-cv", "verify-retries", "spare":
				orphans = append(orphans, "-"+f.Name)
			}
		})
		if len(orphans) > 0 {
			return fmt.Errorf("%s set but no failure mode enabled; add -endurance or -transient-rate",
				strings.Join(orphans, ", "))
		}
	}

	sysCfg := system.Config{
		Params:      par,
		Cores:       *coresN,
		InstrBudget: *instr,
		Seed:        *seed,
		Ctrl:        ctrlCfg,
		Crash:       crash.Config{AtPulse: *crashAt},
		Fault:       fcfg,
		SpareLines:  *spareLines,
		UseCaches:   *useCaches,
		Epoch:       epoch,
		Guard:       guard.Config{Enabled: *guardOn, DeepChecks: *deepChecks},
		MaxEvents:   *maxEvents,
		MaxSimTime:  maxSim,
	}

	if *runTO > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *runTO)
		defer cancel()
	}
	var res system.Result
	if *traceFile != "" {
		res, err = replayTraceFile(ctx, *traceFile, prof.Name, factory, sysCfg)
	} else {
		res, err = system.RunCtx(ctx, prof, factory, sysCfg)
	}
	if err != nil {
		var ce *crash.CutError
		if errors.As(err, &ce) {
			return recoverAndReport(stdout, ce.Image)
		}
		return err
	}
	if *metricsOut != "" {
		if err := res.Telemetry.ExportDir(*metricsOut); err != nil {
			return fmt.Errorf("writing metrics to %s: %w", *metricsOut, err)
		}
		fmt.Fprintf(stderr, "pcmsim: wrote %d series x %d epochs to %s\n",
			len(res.Telemetry.SeriesNames()), res.Telemetry.Epochs(), *metricsOut)
	}
	if *jsonOut {
		return printJSON(stdout, res, par)
	}
	printResult(stdout, res, par)
	return nil
}

// recoverAndReport runs the recovery pass over a power-cut image and
// prints the crash report: the cut context, the crash.* recovery
// counters, and the per-intent classification.
func recoverAndReport(w io.Writer, img *crash.Image) error {
	fmt.Fprintf(w, "power cut      %v (%d pulses issued, %d writes completed)\n",
		img.CutAt, img.PulsesIssued, img.WritesCompleted)
	fmt.Fprintf(w, "intents armed  %d\n", len(img.Intents))
	rep, err := system.Recover(img)
	if err != nil {
		return err
	}
	rep.Stats(func(name string, v float64) {
		fmt.Fprintf(w, "%-24s %.0f\n", name, v)
	})
	for _, l := range rep.Lines {
		fmt.Fprintf(w, "  line %-8d seq %-4d %-12s pulses %d/%d tagfix=%v\n",
			l.Addr, l.Seq, l.Verdict, l.PulsesDone, l.PulsesTotal, l.TagRepaired)
	}
	fmt.Fprintln(w, "recovery complete: every intent line holds its intended data")
	return nil
}

// replayTraceFile loads a trace file and replays it through the platform.
func replayTraceFile(ctx context.Context, path, label string, factory schemes.Factory, cfg system.Config) (system.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return system.Result{}, err
	}
	defer f.Close()
	hdr, recs, err := trace.Parse(f)
	if err != nil {
		return system.Result{}, fmt.Errorf("%s: %w", path, err)
	}
	if int(hdr.LineBytes) != cfg.Params.LineBytes {
		return system.Result{}, fmt.Errorf("%s: trace line size %d B does not match configured -line %d B",
			path, hdr.LineBytes, cfg.Params.LineBytes)
	}
	cfg.Cores = 0 // the trace header, not the flag, decides the core count
	return system.RunTraceCtx(ctx, label, recs, int(hdr.Cores), factory, cfg)
}

func printResult(w io.Writer, res system.Result, par pcm.Params) {
	fmt.Fprintf(w, "workload       %s\n", res.Workload)
	fmt.Fprintf(w, "scheme         %s\n", res.Scheme)
	fmt.Fprintf(w, "running time   %v\n", res.RunningTime)
	fmt.Fprintf(w, "IPC (sum)      %.3f\n", res.IPC)
	fmt.Fprintf(w, "read latency   %v (p99 within histogram resolution: %v)\n",
		res.ReadLatency, res.Ctrl.ReadLatency.Percentile(99))
	fmt.Fprintf(w, "write latency  %v\n", res.WriteLatency)
	fmt.Fprintf(w, "write units    %.3f per line write (baseline: %d)\n", res.WriteUnits, par.DataUnits())
	fmt.Fprintf(w, "memory reads   %d (%d forwarded from the write queue)\n", res.Ctrl.Reads, res.Ctrl.ForwardedReads)
	fmt.Fprintf(w, "memory writes  %d (%d coalesced, %d drains)\n", res.Ctrl.Writes, res.Ctrl.Coalesced, res.Ctrl.Drains)
	fmt.Fprintf(w, "bit pulses     %d SET, %d RESET\n", res.Ctrl.BitSets, res.Ctrl.BitResets)
	fmt.Fprintf(w, "energy         %.0f (SET-current x ns)\n", res.Energy)
	if res.Ctrl.Pauses > 0 || res.Ctrl.SubarrayOverlaps > 0 {
		fmt.Fprintf(w, "overlap        %d pauses, %d subarray overlaps\n",
			res.Ctrl.Pauses, res.Ctrl.SubarrayOverlaps)
	}
	if res.Fault != nil {
		fmt.Fprintf(w, "faults         %d verifies, %d retries, %d transient failures\n",
			res.Ctrl.Verifies, res.Ctrl.Retries, res.Fault.TransientFailures)
		fmt.Fprintf(w, "wear-out       %d stuck cells, %d hard errors\n",
			res.Fault.StuckCells, res.Ctrl.HardErrors)
		if res.Spare != nil {
			fmt.Fprintf(w, "sparing        %d lines remapped, %d spares left, %d exhausted\n",
				res.Spare.RemappedLines, res.Spare.SparesLeft, res.Spare.Exhausted)
		}
		fmt.Fprintf(w, "verify time    %v total bank time\n", res.Ctrl.VerifyOverhead)
	}
	if g := res.Guard; g != nil {
		fmt.Fprintf(w, "guard          %d write plans, %d queue checks, %d deep replays\n",
			g.WritePlans, g.QueueChecks, g.DeepReplays)
	}
	if s := res.Telemetry; s != nil {
		fmt.Fprintf(w, "telemetry      %d epochs of %v, %d series",
			s.Epochs(), s.EpochDuration(), len(s.SeriesNames()))
		if s.Dropped() > 0 {
			fmt.Fprintf(w, " (%d oldest epochs evicted)", s.Dropped())
		}
		fmt.Fprintln(w)
		if wq := s.Series("memctrl.write_queue_depth"); len(wq) > 0 {
			var sum, max float64
			for _, v := range wq {
				sum += v
				if v > max {
					max = v
				}
			}
			fmt.Fprintf(w, "  write queue  mean %.2f, max %.0f entries over epochs\n", sum/float64(len(wq)), max)
		}
		if bu := s.Series("power.budget_util"); len(bu) > 0 {
			fmt.Fprintf(w, "  budget util  %.4f at end of run\n", bu[len(bu)-1])
		}
	}
}
