package system

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"tetriswrite/internal/cache"
	"tetriswrite/internal/cpu"
	"tetriswrite/internal/crash"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/trace"
	"tetriswrite/internal/units"
	"tetriswrite/internal/workload"
)

func smallConfig() Config {
	return Config{
		Params:      pcm.DefaultParams(),
		InstrBudget: 200_000,
		Seed:        7,
	}
}

func TestRunProducesSaneResult(t *testing.T) {
	prof, _ := workload.ProfileByName("vips")
	res, err := Run(prof, schemes.NewDCW, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "vips" || res.Scheme != "dcw" {
		t.Errorf("labels wrong: %s/%s", res.Workload, res.Scheme)
	}
	if res.RunningTime <= 0 {
		t.Error("non-positive running time")
	}
	if res.IPC <= 0 || res.IPC > 4 {
		t.Errorf("IPC = %v, want in (0, 4] for 4 cores", res.IPC)
	}
	if res.Ctrl.Reads == 0 || res.Ctrl.Writes == 0 {
		t.Error("no memory traffic simulated")
	}
	if res.ReadLatency <= 0 || res.WriteLatency <= 0 {
		t.Error("latencies not measured")
	}
	// The baseline takes 8 worst-case write units per write.
	if res.WriteUnits < 7.9 || res.WriteUnits > 8.1 {
		t.Errorf("dcw WriteUnits = %v, want 8", res.WriteUnits)
	}
	if res.Energy <= 0 {
		t.Error("no energy accounted")
	}
	if len(res.Cores) != 4 {
		t.Errorf("%d core stats, want 4", len(res.Cores))
	}
	for i, cs := range res.Cores {
		if !cs.Finished || cs.Retired != 200_000 {
			t.Errorf("core %d did not retire its budget: %+v", i, cs)
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	prof, _ := workload.ProfileByName("ferret")
	a, err := Run(prof, schemes.NewThreeStage, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(prof, schemes.NewThreeStage, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.RunningTime != b.RunningTime || a.IPC != b.IPC ||
		a.ReadLatency != b.ReadLatency || a.WriteLatency != b.WriteLatency ||
		a.Energy != b.Energy {
		t.Errorf("nondeterministic simulation:\n%+v\n%+v", a, b)
	}
}

// TestSchemeOrderingOnMemoryBoundWorkload: on the most memory-intensive
// workload, the paper's ranking of running time and read latency must
// hold: tetris < threestage < twostage < fnw < dcw (all faster than the
// baseline).
func TestSchemeOrderingOnMemoryBoundWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system sweep")
	}
	prof, _ := workload.ProfileByName("vips")
	cfg := smallConfig()
	factories := []schemes.Factory{
		schemes.NewDCW,
		schemes.NewFlipNWrite,
		schemes.NewTwoStage,
		schemes.NewThreeStage,
		tetris.New,
	}
	var results []Result
	for _, f := range factories {
		r, err := Run(prof, f, cfg)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
		t.Logf("%-12s run=%v readLat=%v writeLat=%v wu=%.2f ipc=%.3f",
			r.Scheme, r.RunningTime, r.ReadLatency, r.WriteLatency, r.WriteUnits, r.IPC)
	}
	for i := 1; i < len(results); i++ {
		if results[i].RunningTime >= results[i-1].RunningTime {
			t.Errorf("running time ordering violated: %s (%v) !< %s (%v)",
				results[i].Scheme, results[i].RunningTime,
				results[i-1].Scheme, results[i-1].RunningTime)
		}
		if results[i].IPC <= results[i-1].IPC {
			t.Errorf("IPC ordering violated: %s (%.3f) !> %s (%.3f)",
				results[i].Scheme, results[i].IPC,
				results[i-1].Scheme, results[i-1].IPC)
		}
	}
	// Tetris write units ~1-2 on this workload, far below fnw's 4.
	last := results[len(results)-1]
	if last.WriteUnits >= 4 {
		t.Errorf("tetris WriteUnits = %v, want well below 4", last.WriteUnits)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	prof, _ := workload.ProfileByName("vips")
	cfg := smallConfig()
	cfg.Params.NumChips = 0 // invalid (LineBytes=0 would mean "use defaults")
	if _, err := Run(prof, schemes.NewDCW, cfg); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestRunDefaultsParams(t *testing.T) {
	prof, _ := workload.ProfileByName("blackscholes")
	res, err := Run(prof, schemes.NewDCW, Config{InstrBudget: 20_000})
	if err != nil {
		t.Fatalf("zero-value params should default to Table II: %v", err)
	}
	if res.RunningTime <= 0 {
		t.Error("defaulted run produced nothing")
	}
}

func TestRunWithCaches(t *testing.T) {
	prof, _ := workload.ProfileByName("ferret")
	// CPU-level intensity over a working set larger than the scaled-down
	// hierarchy, so some traffic still reaches PCM.
	prof.RPKI *= 20
	prof.WPKI *= 20
	prof.PrivateLines = 1 << 15
	cfg := smallConfig()
	cfg.UseCaches = true
	cfg.CacheLevels = []cache.LevelConfig{
		{Name: "L1", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, Latency: units.NewClock(2e9).Cycles(2)},
		{Name: "L2", SizeBytes: 128 << 10, LineBytes: 64, Ways: 8, Latency: units.NewClock(2e9).Cycles(20)},
	}
	res, err := Run(prof, schemes.NewThreeStage, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Caches) != 2 {
		t.Fatalf("cache stats for %d levels, want 2", len(res.Caches))
	}
	if res.Caches[0].Hits == 0 {
		t.Error("L1 never hit")
	}
	if res.Ctrl.Reads == 0 {
		t.Error("no traffic reached PCM through the hierarchy")
	}
	// Filtering: PCM sees far fewer reads than the cores issued.
	var coreReads int64
	for _, cs := range res.Cores {
		coreReads += cs.Reads
	}
	if res.Ctrl.Reads >= coreReads {
		t.Errorf("PCM reads (%d) not filtered below core reads (%d)", res.Ctrl.Reads, coreReads)
	}
	if !res.Cores[0].Finished {
		t.Error("cores did not finish under the hierarchy")
	}
}

// TestValidateRejectsConflicts: both entry points share one
// Config.Validate. Every rule rejects its conflict with one exact
// message, before building anything: cache levels without the cache
// hierarchy, crash injection together with the fault model or write
// pausing, deep checks without the guard, negative counts, an invalid
// sub-config, and (on traces, which have no profile to size the
// resident region) Start-Gap wear leveling. The same config with the
// conflict resolved runs.
func TestValidateRejectsConflicts(t *testing.T) {
	prof, _ := workload.ProfileByName("vips")
	recs := trace.Generate(prof, 2, 7, pcm.DefaultParams(), 200)
	entries := []struct {
		name  string
		trace bool
		run   func(Config) error
	}{
		{"Run", false, func(cfg Config) error { _, err := Run(prof, tetris.New, cfg); return err }},
		{"RunTrace", true, func(cfg Config) error { _, err := RunTrace("vips", recs, 2, tetris.New, cfg); return err }},
	}
	rejections := []struct {
		name      string
		conflict  func(*Config)
		resolve   func(*Config)
		want      string
		traceOnly bool // Run accepts the conflicting setting
	}{
		{
			name: "cache-levels-without-caches",
			conflict: func(c *Config) {
				c.CacheLevels = []cache.LevelConfig{
					{Name: "L1", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, Latency: units.NewClock(2e9).Cycles(2)},
				}
			},
			resolve: func(c *Config) { c.UseCaches = true },
			want:    "system: CacheLevels requires UseCaches",
		},
		{
			name: "crash-with-fault-model",
			conflict: func(c *Config) {
				c.Fault = faultConfig().Fault
				c.Crash = crash.Config{AtPulse: 100}
			},
			resolve: func(c *Config) { c.Crash = crash.Config{} },
			want:    "system: crash injection is incompatible with the fault model",
		},
		{
			name: "crash-with-pausing",
			conflict: func(c *Config) {
				c.Crash = crash.Config{AtPulse: 100}
				c.Ctrl.WritePausing = true
			},
			resolve: func(c *Config) { c.Crash = crash.Config{} },
			want:    "system: crash injection is incompatible with Ctrl.WritePausing",
		},
		{
			name:     "deep-checks-without-guard",
			conflict: func(c *Config) { c.Guard.DeepChecks = true },
			resolve:  func(c *Config) { c.Guard.Enabled = true },
			want:     "system: Guard.DeepChecks requires Guard.Enabled",
		},
		{
			name:     "negative-subarrays",
			conflict: func(c *Config) { c.Ctrl.Subarrays = -1 },
			resolve:  func(c *Config) { c.Ctrl.Subarrays = 0 },
			want:     "system: Ctrl.Subarrays -1 is negative",
		},
		{
			name:     "negative-verify-retries",
			conflict: func(c *Config) { c.Ctrl.VerifyRetries = -1 },
			resolve:  func(c *Config) { c.Ctrl.VerifyRetries = 0 },
			want:     "system: Ctrl.VerifyRetries -1 is negative",
		},
		{
			name:     "negative-spare-lines",
			conflict: func(c *Config) { c.SpareLines = -8 },
			resolve:  func(c *Config) { c.SpareLines = 0 },
			want:     "system: SpareLines -8 is negative",
		},
		{
			name:     "invalid-fault-config",
			conflict: func(c *Config) { c.Fault.TransientRate = 1.5 },
			resolve:  func(c *Config) { c.Fault.TransientRate = 0 },
			want:     "system: fault: TransientRate 1.5 must be in [0, 1)",
		},
		{
			name:      "wear-leveling-on-trace",
			conflict:  func(c *Config) { c.WearLevelPsi = 50 },
			resolve:   func(c *Config) { c.WearLevelPsi = 0 },
			want:      "system: WearLevelPsi needs a workload profile to size the resident region; a trace has none",
			traceOnly: true,
		},
	}
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			for _, r := range rejections {
				cfg := smallConfig()
				cfg.InstrBudget = 2_000
				r.conflict(&cfg)
				err := e.run(cfg)
				if r.traceOnly && !e.trace {
					if err != nil {
						t.Errorf("%s: %v", r.name, err)
					}
					continue
				}
				if err == nil || err.Error() != r.want {
					t.Errorf("%s: err = %v, want %q", r.name, err, r.want)
				}
				r.resolve(&cfg)
				if err := e.run(cfg); err != nil {
					t.Errorf("%s resolved: %v", r.name, err)
				}
			}
		})
	}
}

// TestRunTraceRejectsOutOfRangeAddress: a record addressing a line
// outside the device is a validation error naming the record, found in
// one pass before the platform is built, not a panic from the device.
func TestRunTraceRejectsOutOfRangeAddress(t *testing.T) {
	for _, tc := range []struct {
		addr pcm.LineAddr
		want string
	}{
		{1 << 40, "system: trace record 1: line address 1099511627776 out of range [0, 67108864)"},
		{-1, "system: trace record 1: line address -1 out of range [0, 67108864)"},
	} {
		recs := []trace.Record{{Core: 0, Op: workload.Op{Think: 10, Addr: tc.addr}}}
		_, err := RunTrace("crafted", recs, 1, tetris.New, smallConfig())
		if err == nil || err.Error() != tc.want {
			t.Errorf("err = %v, want %q", err, tc.want)
		}
		var pe *PanicError
		if errors.As(err, &pe) {
			t.Errorf("out-of-range record panicked: %v", pe)
		}
	}
}

func TestRunTrace(t *testing.T) {
	prof, _ := workload.ProfileByName("ferret")
	recs := trace.Generate(prof, 2, 3, pcm.DefaultParams(), 2000)
	res, err := RunTrace("ferret", recs, 2, schemes.NewThreeStage, Config{InstrBudget: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "ferret (trace)" {
		t.Errorf("label = %q", res.Workload)
	}
	if res.Ctrl.Reads == 0 || res.Ctrl.Writes == 0 {
		t.Error("trace replay produced no traffic")
	}
	if res.IPC <= 0 {
		t.Error("no IPC from trace replay")
	}
	// Replay is deterministic.
	res2, err := RunTrace("ferret", trace.Generate(prof, 2, 3, pcm.DefaultParams(), 2000), 2,
		schemes.NewThreeStage, Config{InstrBudget: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.RunningTime != res2.RunningTime || res.ReadLatency != res2.ReadLatency {
		t.Error("trace replay nondeterministic")
	}
}

// TestRunRecordedRejectsMismatch: a config that would not replay the
// recording exactly is refused before anything runs, naming the field;
// a smaller budget, which replays a prefix of each stream, is not.
func TestRunRecordedRejectsMismatch(t *testing.T) {
	prof, _ := workload.ProfileByName("vips")
	cfg := smallConfig()
	cfg.Normalize()
	rec, err := workload.Record(context.Background(), prof, cfg.Cores, cfg.Seed, cfg.Params, cfg.InstrBudget)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"cores", func(c *Config) { c.Cores = 2 }},
		{"seed", func(c *Config) { c.Seed = 8 }},
		{"lines", func(c *Config) { c.Params.LineBytes = 128 }},
		{"instructions", func(c *Config) { c.InstrBudget++ }},
	} {
		c := cfg
		tc.set(&c)
		res, err := RunRecordedCtx(context.Background(), rec, schemes.NewDCW, c)
		if err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s mismatch: err = %v, want an error naming %s", tc.name, err, tc.name)
		}
		if res.Cores != nil {
			t.Errorf("%s mismatch: the run started: %+v", tc.name, res.Cores)
		}
	}
	c := cfg
	c.InstrBudget /= 2
	if _, err := RunRecordedCtx(context.Background(), rec, schemes.NewDCW, c); err != nil {
		t.Errorf("half the recorded budget: %v", err)
	}
}

// TestReplayPastEndIsPanicError: a replay fed to cores with a larger
// budget than it was recorded for runs out mid-run; the panic, naming
// the core and op, surfaces as a *PanicError with the run fingerprint.
func TestReplayPastEndIsPanicError(t *testing.T) {
	prof, _ := workload.ProfileByName("vips")
	cfg := smallConfig()
	cfg.Normalize()
	rec, err := workload.Record(context.Background(), prof, cfg.Cores, cfg.Seed, cfg.Params, cfg.InstrBudget/4)
	if err != nil {
		t.Fatal(err)
	}
	// run bypasses RunRecordedCtx's budget check.
	_, err = run(context.Background(), prof.Name, schemes.NewDCW, cfg, func() (*workload.Program, []cpu.OpSource, *workload.Pipeline) {
		prog := workload.NewProgram(prof, cfg.Cores, cfg.Seed, cfg.Params)
		srcs := make([]cpu.OpSource, cfg.Cores)
		for i := range srcs {
			srcs[i] = rec.Replay(prog, i)
		}
		return prog, srcs, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *PanicError", err, err)
	}
	if msg := fmt.Sprint(pe.Value); !regexp.MustCompile(`core \d replay ran past its end: op \d+ `).MatchString(msg) {
		t.Errorf("panic %q does not name the core and op", msg)
	}
	if pe.Fp.Workload != "vips" || pe.Fp.Scheme != "dcw" || pe.Fp.Seed != cfg.Seed {
		t.Errorf("fingerprint %+v, want vips/dcw seed %d", pe.Fp, cfg.Seed)
	}
}
