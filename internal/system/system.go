// Package system assembles the full evaluation platform of the paper's
// Table II: four 2 GHz cores running one multi-threaded workload, a
// read-priority memory controller with 32-entry queues, and 8 banks of
// SLC PCM programmed by a pluggable write scheme. One Run produces the
// metrics every figure of the evaluation is built from: average read and
// write latency, per-write write units, IPC, and application running
// time.
//
// Runs are hardened: RunCtx and RunTraceCtx accept a context and a
// watchdog budget (MaxEvents, MaxSimTime) so a livelocked scheduler
// terminates diagnosably instead of hanging the caller; panics escaping
// the simulation are converted to *PanicError carrying the run
// fingerprint; and Config.Guard threads a runtime invariant checker
// through the controller. An aborted run still returns the partial
// Result gathered so far alongside its error, with the telemetry
// sampler finalized so in-progress epochs are exported rather than
// lost.
package system

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"tetriswrite/internal/cache"
	"tetriswrite/internal/cpu"
	"tetriswrite/internal/crash"
	"tetriswrite/internal/fault"
	"tetriswrite/internal/guard"
	"tetriswrite/internal/memctrl"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/telemetry"
	"tetriswrite/internal/trace"
	"tetriswrite/internal/units"
	"tetriswrite/internal/wearlevel"
	"tetriswrite/internal/workload"
)

// Config describes one full-system simulation.
type Config struct {
	Params      pcm.Params     // device configuration (Table II)
	Cores       int            // default 4
	InstrBudget int64          // instructions per core (default 1M)
	Ctrl        memctrl.Config // controller configuration
	Seed        int64          // workload seed

	// UseCaches interposes the Table II L1/L2/L3 hierarchy (or
	// CacheLevels, if set) between the cores and the controller. The
	// workload stream is then interpreted as CPU-level accesses; the
	// headline experiments leave this off because Table III's RPKI/WPKI
	// are memory-level counters.
	UseCaches   bool
	CacheLevels []cache.LevelConfig

	// WearLevelPsi, when positive, wraps the workload's resident working
	// set (the private and shared regions) in a Start-Gap wear-leveling
	// region with a gap move every psi writes, and tracks per-line wear.
	WearLevelPsi int
	// TrackWear attaches per-line wear accounting even without wear
	// leveling, so endurance experiments can compare the two.
	TrackWear bool

	// Fault configures the deterministic cell-failure model (wear-out
	// stuck-at cells, transient pulse failures). The zero value leaves
	// the device ideal and every path below bit-identical to a run
	// without this field. Enabling any failure mode also turns on the
	// controller's write-verify loop, and a spare region for hard-error
	// line remapping is carved from the top of the device.
	Fault fault.Config
	// SpareLines sizes the hard-error spare region (default 64 when the
	// fault model is enabled, ignored otherwise).
	SpareLines int

	// Crash configures the deterministic power-failure injector: the run
	// is cut at the configured pulse/write/cycle boundary, the device
	// freezes at exactly the pulses completed so far, and the run
	// returns a *RunError wrapping *crash.CutError whose Image feeds
	// Recover. The zero value attaches nothing and the run is
	// bit-identical to one without this field. Incompatible with the
	// fault model (the device would drift from the crash shadow) and
	// with write pausing (it moves the frozen pulse schedule).
	Crash crash.Config

	// Epoch, when positive, attaches the telemetry sampler: every layer
	// registers its counters and a snapshot of all of them is taken each
	// Epoch of simulated time into Result.Telemetry. Zero (the default)
	// attaches nothing and the run is bit-identical to one without
	// telemetry — all instruments are polled, never pushed. The sampler
	// keeps the last telemetry.DefaultRingSize epochs.
	Epoch units.Duration

	// Guard configures the runtime invariant checker threaded through
	// the memory controller: per issued write unit it validates power
	// budget, pulse coverage, queue bounds and clock monotonicity. The
	// first violation stops the engine and the run returns the
	// *guard.ViolationError. Checks only read state, so a guarded run is
	// bit-identical to an unguarded one.
	Guard guard.Config

	// MaxEvents and MaxSimTime bound the engine run (see sim.Watchdog):
	// 0 means unlimited. When a budget trips, the run returns a
	// *RunError wrapping the *sim.BudgetError together with the partial
	// Result gathered so far.
	MaxEvents  uint64
	MaxSimTime units.Duration
}

// cpuClock is the Table II core clock.
var cpuClock = units.NewClock(2e9)

// Normalize fills defaults in place.
func (c *Config) Normalize() {
	if c.Params.LineBytes == 0 {
		c.Params = pcm.DefaultParams()
	}
	if c.Cores <= 0 {
		c.Cores = 4
	}
	if c.InstrBudget <= 0 {
		c.InstrBudget = 1_000_000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Validate rejects a configuration the platform cannot be assembled
// from, or one in which a setting would silently do nothing. Run and
// RunTrace call it after Normalize, before building anything. Zero
// counts mean "use the default"; negative ones are rejected.
func (c *Config) Validate() error {
	parts := []interface{ Validate() error }{c.Params, c.Fault, c.Crash}
	for _, l := range c.CacheLevels {
		parts = append(parts, l)
	}
	for _, part := range parts {
		if err := part.Validate(); err != nil {
			return fmt.Errorf("system: %w", err)
		}
	}
	crashOn := c.Crash.Enabled()
	switch {
	case len(c.CacheLevels) > 0 && !c.UseCaches:
		return errors.New("system: CacheLevels requires UseCaches")
	// Injected cell failures make the device drift from the crash
	// shadow's pulse-train model.
	case crashOn && c.Fault.Enabled():
		return errors.New("system: crash injection is incompatible with the fault model")
	// The crash hook assumes the pulse schedule fixed at issue: pausing
	// moves pulse boundaries after it.
	case crashOn && c.Ctrl.WritePausing:
		return errors.New("system: crash injection is incompatible with Ctrl.WritePausing")
	case c.Guard.DeepChecks && !c.Guard.Enabled:
		return errors.New("system: Guard.DeepChecks requires Guard.Enabled")
	case c.Ctrl.Subarrays < 0:
		return fmt.Errorf("system: Ctrl.Subarrays %d is negative", c.Ctrl.Subarrays)
	case c.Ctrl.VerifyRetries < 0:
		return fmt.Errorf("system: Ctrl.VerifyRetries %d is negative", c.Ctrl.VerifyRetries)
	case c.SpareLines < 0:
		return fmt.Errorf("system: SpareLines %d is negative", c.SpareLines)
	}
	return nil
}

// watchdog builds the engine watchdog from the config budgets.
func (c *Config) watchdog() sim.Watchdog {
	return sim.Watchdog{MaxEvents: c.MaxEvents, MaxSimTime: c.MaxSimTime}
}

// Result is the outcome of one simulation.
type Result struct {
	Workload string
	Scheme   string

	RunningTime    units.Duration // when the last core retired its budget
	IPC            float64        // summed per-core IPC (the paper's metric)
	ReadLatency    units.Duration // mean memory read latency
	WriteLatency   units.Duration // mean memory write latency
	WriteUnits     float64        // mean write units per line write (Fig 10)
	Energy         float64        // programming energy, SET-current x ns units
	EnergyPerWrite float64

	Ctrl   memctrl.Stats
	Cores  []cpu.Stats
	Caches []cache.Stats // per level, only with UseCaches

	// Wear reports the per-line wear distribution (with TrackWear or
	// WearLevelPsi), and Remap the wear-leveling activity (with
	// WearLevelPsi).
	Wear  *pcm.WearSummary
	Remap *wearlevel.RemapStats

	// Fault reports injector activity and Spare the hard-error sparing
	// activity; both nil unless Config.Fault enables a failure mode.
	Fault *fault.Stats
	Spare *fault.SpareStats

	// Telemetry holds the epoch time series recorded during the run; nil
	// unless Config.Epoch was set.
	Telemetry *telemetry.Sampler

	// Guard counts the invariant checks performed; nil unless
	// Config.Guard was enabled.
	Guard *guard.Stats
}

// RunError wraps the error that aborted a run — cancellation, a tripped
// watchdog budget, or an engine Stop — with the fingerprint that
// reproduces it. The Result returned alongside holds the statistics
// gathered up to the abort.
type RunError struct {
	Fp  guard.Fingerprint
	Err error
}

func (e *RunError) Error() string {
	return fmt.Sprintf("system: run aborted [%s]: %v", e.Fp, e.Err)
}

func (e *RunError) Unwrap() error { return e.Err }

// PanicError is a panic that escaped the simulation, converted to an
// error so one corrupted cell of a parallel sweep becomes an error row
// instead of a crashed process. Stack holds the panicking goroutine's
// stack at recovery time.
type PanicError struct {
	Fp    guard.Fingerprint
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("system: panic during run [%s]: %v", e.Fp, e.Value)
}

// recoverRun converts a panic escaping the simulation into a
// *PanicError carrying the run fingerprint.
func recoverRun(err *error, eng *sim.Engine, fp guard.Fingerprint) {
	if p := recover(); p != nil {
		fp.Cycle = eng.Now()
		*err = &PanicError{Fp: fp, Value: p, Stack: debug.Stack()}
	}
}

// runEngine drives the engine under the configured watchdog and
// converts failures into fingerprinted errors. On any abort the sampler
// is finalized so the partial epoch in progress is exported.
func runEngine(ctx context.Context, eng *sim.Engine, cfg Config, fp guard.Fingerprint, sampler *telemetry.Sampler) error {
	err := eng.RunContext(ctx, cfg.watchdog())
	if err == nil {
		return nil
	}
	if sampler != nil {
		sampler.Finalize(eng.Now())
	}
	var v *guard.ViolationError
	if errors.As(err, &v) {
		return v // already carries the fingerprint and violation cycle
	}
	fp.Cycle = eng.Now()
	return &RunError{Fp: fp, Err: err}
}

// newGuard builds and wires the invariant checker, or returns nil when
// disabled. The first violation stops the engine immediately.
func newGuard(eng *sim.Engine, ctrl *memctrl.Controller, cfg Config, fp guard.Fingerprint) *guard.Guard {
	if !cfg.Guard.Enabled {
		return nil
	}
	g := guard.New(cfg.Params, cfg.Guard)
	g.SetFingerprint(fp.Seed, fp.Workload, fp.Scheme)
	g.OnViolation(func(v *guard.ViolationError) { eng.Stop(v) })
	ctrl.SetGuard(g)
	return g
}

// platform is one assembled evaluation platform: every layer a run
// built, in construction order. Layers the config leaves off stay nil.
// The telemetry registration and the Result both read it, after a clean
// drain or an abort alike.
type platform struct {
	eng     *sim.Engine
	dev     *pcm.Device
	inj     *fault.Injector
	ctrl    *memctrl.Controller
	crash   *crash.Injector
	guard   *guard.Guard
	spare   *fault.SpareRemapper
	wear    *pcm.WearTracker
	remap   *wearlevel.Remapper
	preload *preloadPort
	hier    *cache.Hierarchy
	cores   []*cpu.Core
	sampler *telemetry.Sampler

	remaining  int        // cores still retiring their budget
	lastFinish units.Time // when the last core retired its budget
}

// result builds the Result from whatever state the platform holds —
// valid both after a clean drain and after an abort, where it yields
// the partial statistics.
func (p *platform) result(label, scheme string, cfg Config) Result {
	st := p.ctrl.Stats()
	res := Result{
		Workload:     label,
		Scheme:       scheme,
		RunningTime:  units.Duration(p.lastFinish),
		ReadLatency:  st.ReadLatency.Mean(),
		WriteLatency: st.WriteLatency.Mean(),
		Ctrl:         st,
	}
	if n := st.WriteLatency.Count(); n > 0 {
		res.WriteUnits = st.WriteUnits / float64(n)
	}
	model := pcm.EnergyModelFor(cfg.Params)
	res.Energy = model.WriteEnergy(int(st.BitSets), int(st.BitResets))
	if n := st.WriteLatency.Count(); n > 0 {
		res.EnergyPerWrite = res.Energy / float64(n)
	}
	for _, c := range p.cores {
		cs := c.Stats()
		res.Cores = append(res.Cores, cs)
		res.IPC += cs.IPC(cpuClock, p.eng.Now())
	}
	if p.hier != nil {
		res.Caches = p.hier.LevelStats()
	}
	if p.wear != nil {
		sum := p.wear.Summary()
		res.Wear = &sum
	}
	if p.remap != nil {
		rs := p.remap.Stats()
		res.Remap = &rs
	}
	if p.inj != nil {
		fs := p.inj.Stats()
		res.Fault = &fs
		ss := p.spare.Stats()
		res.Spare = &ss
	}
	res.Telemetry = p.sampler
	if p.guard != nil {
		gs := p.guard.Stats()
		res.Guard = &gs
	}
	return res
}

// Run simulates one workload under one write scheme to completion.
func Run(prof workload.Profile, factory schemes.Factory, cfg Config) (Result, error) {
	return RunCtx(context.Background(), prof, factory, cfg)
}

// RunCtx is Run under a context: the run terminates early when ctx is
// cancelled, a watchdog budget trips, or the invariant guard detects a
// violation. On early termination the returned error identifies the
// cause (with the run fingerprint) and the Result still carries the
// partial statistics and finalized telemetry gathered up to that point.
func RunCtx(ctx context.Context, prof workload.Profile, factory schemes.Factory, cfg Config) (Result, error) {
	cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	return run(ctx, prof.Name, factory, cfg, func() (*workload.Program, []cpu.OpSource, *workload.Pipeline) {
		prog := workload.NewProgram(prof, cfg.Cores, cfg.Seed, cfg.Params)
		pl := prog.Pipeline(cfg.InstrBudget)
		srcs := make([]cpu.OpSource, cfg.Cores)
		for i := range srcs {
			srcs[i] = pl.Source(i)
		}
		return prog, srcs, pl
	})
}

// RunRecordedCtx is RunCtx with each core's operations replayed from rec
// instead of generated live: the Result is the one RunCtx returns for
// rec's profile. The draws are rec's, and the payloads are built by
// applying them to the run's own program shadow. rec is read-only, so
// the scheme cells of one workload can share it, concurrently too. cfg
// must match the recording in Cores, Seed and Params.LineBytes, and
// may not ask for more instructions per core than it covers.
func RunRecordedCtx(ctx context.Context, rec *workload.Recording, factory schemes.Factory, cfg Config) (Result, error) {
	cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := rec.Check(cfg.Cores, cfg.Seed, cfg.Params.LineBytes, cfg.InstrBudget); err != nil {
		return Result{}, fmt.Errorf("system: %w", err)
	}
	prof := rec.Profile()
	return run(ctx, prof.Name, factory, cfg, func() (*workload.Program, []cpu.OpSource, *workload.Pipeline) {
		prog := workload.NewProgram(prof, cfg.Cores, cfg.Seed, cfg.Params)
		srcs := make([]cpu.OpSource, cfg.Cores)
		for i := range srcs {
			srcs[i] = rec.Replay(prog, i)
		}
		return prog, srcs, nil
	})
}

// RunTrace replays a pre-recorded memory trace through the platform
// instead of generating operations on the fly: the platform Run builds,
// but each core's stream comes from the trace's records. The workload
// name is only a label; data contents come from the trace payloads (the
// device starts zeroed, as traces carry absolute line images), so there
// is no first-touch preload and no profile to place a Start-Gap region
// in.
//
// recs is read-only: the run shares the write payloads with the records
// and never writes to them, so one parsed trace can be replayed any
// number of times, and by concurrent runs.
func RunTrace(label string, recs []trace.Record, cores int, factory schemes.Factory, cfg Config) (Result, error) {
	return RunTraceCtx(context.Background(), label, recs, cores, factory, cfg)
}

// RunTraceCtx is RunTrace under a context, with the same early-
// termination and partial-result semantics as RunCtx.
func RunTraceCtx(ctx context.Context, label string, recs []trace.Record, cores int, factory schemes.Factory, cfg Config) (Result, error) {
	cfg.Cores = cores
	cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.WearLevelPsi > 0 {
		return Result{}, errors.New("system: WearLevelPsi needs a workload profile to size the resident region; a trace has none")
	}
	lines := cfg.Params.Lines()
	for i, r := range recs {
		if r.Op.Addr < 0 || int64(r.Op.Addr) >= lines {
			return Result{}, fmt.Errorf("system: trace record %d: line address %d out of range [0, %d)", i+1, r.Op.Addr, lines)
		}
	}
	return run(ctx, label, factory, cfg, func() (*workload.Program, []cpu.OpSource, *workload.Pipeline) {
		srcs := make([]cpu.OpSource, cfg.Cores)
		for i := range srcs {
			srcs[i] = trace.NewCoreSource(recs, i)
		}
		return nil, srcs, nil
	})
}

// Fingerprint returns the fingerprint the errors of a run of the named
// workload under factory's scheme and cfg carry, at cycle 0: for a
// caller that fails such a run before it starts.
func Fingerprint(name string, factory schemes.Factory, cfg Config) guard.Fingerprint {
	cfg.Normalize()
	return guard.Fingerprint{Seed: cfg.Seed, Workload: name, Scheme: factory(cfg.Params).Name()}
}

// run assembles the platform for a validated config, drives it, and
// reports. feed returns one operation source per core and, for a
// synthetic workload, the program behind them (nil for a trace). When
// the sources are a live Pipeline, feed returns it too, and every
// return of run, a recovered panic included, stops its producers. feed
// is called under the run's panic recovery, so a profile the workload
// model rejects surfaces as a *PanicError like any other fault of the
// run, before any producer starts.
func run(ctx context.Context, name string, factory schemes.Factory, cfg Config,
	feed func() (*workload.Program, []cpu.OpSource, *workload.Pipeline)) (res Result, err error) {
	p := &platform{eng: &sim.Engine{}}
	fp := Fingerprint(name, factory, cfg)
	defer recoverRun(&err, p.eng, fp)

	prog, srcs, pl := feed()
	defer pl.Stop()
	label := name
	if prog == nil {
		label += " (trace)"
	}
	if err := p.assemble(cfg, factory, fp, prog, srcs); err != nil {
		return Result{}, err
	}
	runErr := runEngine(ctx, p.eng, cfg, fp, p.sampler)
	res = p.result(label, fp.Scheme, cfg)
	if runErr != nil {
		return res, runErr
	}
	if p.remaining != 0 {
		return res, fmt.Errorf("system: %d cores never finished (deadlock?)", p.remaining)
	}
	return res, nil
}

// assemble builds and wires every layer of the platform in a fixed
// order, which the pinned Results and telemetry columns depend on:
// device, fault injector, controller, crash injector, guard, spare
// remapper, wear tracker, Start-Gap remapper, preload, caches, cores,
// sampler. prog, when non-nil, is the synthetic workload behind srcs:
// it drives the first-touch preload, the cell store's capacity hint and
// Start-Gap's resident region.
func (p *platform) assemble(cfg Config, factory schemes.Factory, fp guard.Fingerprint, prog *workload.Program, srcs []cpu.OpSource) error {
	eng := p.eng
	dev, err := pcm.NewDevice(cfg.Params)
	if err != nil {
		return err
	}
	p.dev = dev

	// Optional deterministic fault model: the injector fails pulses at
	// the device, the controller verifies and retries, and hard errors
	// drain into a spare region at the top of the device.
	if cfg.Fault.Enabled() {
		if p.inj, err = fault.New(cfg.Fault); err != nil {
			return err
		}
		dev.AttachFaults(p.inj)
		cfg.Ctrl.VerifyWrites = true
	}

	ctrl := memctrl.New(eng, dev, factory, cfg.Ctrl)
	p.ctrl = ctrl
	ctrl.SetFingerprint(fp)
	if p.crash, err = attachCrash(eng, dev, ctrl, cfg); err != nil {
		return err
	}
	p.guard = newGuard(eng, ctrl, cfg, fp)
	if prog != nil {
		// Pre-size the cell store to the lines the run can plausibly
		// touch — the workload's address footprint, capped by its
		// expected memory access count — so the first-touch preload path
		// skips the store's doubling-and-rehash ladder without zeroing
		// capacity a short run never fills.
		np := prog.Profile()
		accesses := int64(float64(cfg.InstrBudget) * float64(cfg.Cores) * (np.RPKI + np.WPKI) / 1000)
		if hint := prog.AddressFootprint(); hint > 0 {
			dev.ReserveLines(min(hint, accesses))
		}
	}

	var mem cpu.MemPort = ctrl
	snoop := ctrl.Snoop
	if p.inj != nil {
		spares := cfg.SpareLines
		if spares <= 0 {
			spares = 64
		}
		base := pcm.LineAddr(cfg.Params.Lines() - int64(spares))
		if p.spare, err = fault.NewSpareRemapper(ctrl, base, spares, ctrl.Snoop); err != nil {
			return err
		}
		ctrl.SetHardErrorHandler(p.spare.OnHardError)
		mem = p.spare
		snoop = p.spare.Snoop
	}

	if cfg.TrackWear || cfg.WearLevelPsi > 0 {
		// Wear is recorded at the controller, keyed by physical line and
		// counting the scheme's actual pulses (redundant pulses wear
		// cells too, which is how non-comparing schemes hurt endurance).
		p.wear = pcm.NewWearTracker()
		ctrl.SetWearTracker(p.wear)
	}

	// Optional Start-Gap wear leveling over the resident working set
	// (RunTraceCtx keeps it off traces, which have no profile).
	// Ordering: Start-Gap translates logical lines to rotating physical
	// slots, and the sparing layer below redirects physical slots that
	// died — the gap rotation never sees hard errors.
	var down cpu.MemPort = mem
	var translate func(pcm.LineAddr) pcm.LineAddr
	if cfg.WearLevelPsi > 0 {
		np := prog.Profile()
		resident := int64(cfg.Cores)*int64(np.PrivateLines) + int64(np.SharedLines)
		region, err := wearlevel.NewRegion(0, resident, cfg.WearLevelPsi)
		if err != nil {
			return err
		}
		p.remap = wearlevel.NewRemapper(mem, region, cfg.Params.LineBytes, snoop)
		down = p.remap
		translate = region.Translate
	}

	// A synthetic workload's lines start with its initial contents; a
	// trace carries absolute line images over a zeroed device.
	if prog != nil {
		p.preload = &preloadPort{down: down, dev: dev, prog: prog, seen: newFirstTouch(prog), translate: translate}
		down = p.preload
	}

	port := down
	if cfg.UseCaches {
		levels := cfg.CacheLevels
		if levels == nil {
			levels = cache.DefaultLevels(cpuClock)
		}
		if p.hier, err = cache.New(eng, down, levels); err != nil {
			return err
		}
		port = p.hier
	}

	p.cores = make([]*cpu.Core, len(srcs))
	p.remaining = len(srcs)
	for i, src := range srcs {
		p.cores[i] = cpu.New(eng, cpuClock, src, port, cfg.InstrBudget, p.coreDone)
		p.cores[i].Start()
	}
	if cfg.Epoch > 0 {
		p.attachTelemetry(cfg)
	}
	return nil
}

// coreDone records one core retiring its budget; after the last one the
// controller flushes its outstanding writes so their latency is counted.
func (p *platform) coreDone() {
	p.remaining--
	if t := p.eng.Now(); t > p.lastFinish {
		p.lastFinish = t
	}
	if p.remaining == 0 {
		p.ctrl.WhenIdle(func() {})
	}
}
