package exp

import (
	"bytes"
	"errors"
	"fmt"

	"tetriswrite/internal/crash"
	"tetriswrite/internal/guard"
	"tetriswrite/internal/memctrl"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/stats"
	"tetriswrite/internal/units"
	"tetriswrite/internal/workload"
)

// CrashSweepOptions configure the crash-consistency sweep.
type CrashSweepOptions struct {
	Options
	// Every selects the cut density: the sweep crashes each cell at
	// every Every-th pulse boundary (default 64).
	Every int64
	// MaxCuts caps the cut points per cell; when the Every grid yields
	// more, the points are subsampled evenly so the cuts still span the
	// whole run (default 8).
	MaxCuts int
}

// Normalize fills defaults. The write count defaults lower than the
// figure sweeps: every cut replays the cell three times (oracle, crash,
// resume).
func (o *CrashSweepOptions) Normalize() {
	if o.Writes <= 0 {
		o.Writes = 120
	}
	o.Options.Normalize()
	if o.Every <= 0 {
		o.Every = 64
	}
	if o.MaxCuts <= 0 {
		o.MaxCuts = 8
	}
}

// CrashCell aggregates every cut of one (workload, scheme) cell.
type CrashCell struct {
	Workload, Scheme string
	TotalPulses      int64
	Cuts             int
	Intents          int
	Clean            int
	Rollforwards     int
	Reissues         int
	TagRepairs       int
	RecoverySets     int64
	RecoveryResets   int64
	RecoveryTime     units.Duration
}

// CrashSweepResult is the full grid.
type CrashSweepResult struct {
	Opt   CrashSweepOptions
	Cells []CrashCell
}

// Table renders the per-scheme crash classification table: how the
// armed intents found at each cut were classified, and what the
// recovery pass cost — the artifact the crash-smoke CI job uploads.
func (r *CrashSweepResult) Table() *stats.Table {
	tb := stats.NewTable(
		fmt.Sprintf("Crash sweep: recovery classification (cut every %d pulses)", r.Opt.Every),
		"scheme", "cuts", "intents", "clean", "rollfwd", "reissue", "tagfix", "rec_sets", "rec_resets", "rec_ns/cut")
	order := []string{}
	per := map[string]*CrashCell{}
	for _, c := range r.Cells {
		a := per[c.Scheme]
		if a == nil {
			a = &CrashCell{}
			per[c.Scheme] = a
			order = append(order, c.Scheme)
		}
		a.Cuts += c.Cuts
		a.Intents += c.Intents
		a.Clean += c.Clean
		a.Rollforwards += c.Rollforwards
		a.Reissues += c.Reissues
		a.TagRepairs += c.TagRepairs
		a.RecoverySets += c.RecoverySets
		a.RecoveryResets += c.RecoveryResets
		a.RecoveryTime += c.RecoveryTime
	}
	for _, name := range order {
		a := per[name]
		perCut := 0.0
		if a.Cuts > 0 {
			perCut = a.RecoveryTime.Nanoseconds() / float64(a.Cuts)
		}
		tb.AddRow(name, a.Cuts, a.Intents, a.Clean, a.Rollforwards, a.Reissues,
			a.TagRepairs, a.RecoverySets, a.RecoveryResets, perCut)
	}
	return tb
}

// crashOp is one record of a cell's write stream.
type crashOp struct {
	addr pcm.LineAddr
	data []byte
}

// crashOps materializes the workload's write stream (private copies —
// the stream generator reuses its buffers).
func crashOps(prof workload.Profile, opt Options) []crashOp {
	var ops []crashOp
	writeStream(prof, opt, func(addr pcm.LineAddr, _, new []byte) {
		ops = append(ops, crashOp{addr, append([]byte(nil), new...)})
	})
	return ops
}

// crashCtrlConfig is the controller configuration of every sweep run:
// opportunistic service so the stream drains without queue pressure, no
// coalescing so each submitted op maps to exactly one acknowledgement.
func crashCtrlConfig() memctrl.Config {
	return memctrl.Config{OpportunisticWrites: true, DisableCoalescing: true}
}

// pump submits ops in index order as queue space permits, skipping
// indices where skip is true, and flips acked[k] when op k is
// acknowledged. A trailing WhenIdle forces the final drain.
func pump(eng *sim.Engine, ctrl *memctrl.Controller, ops []crashOp, skip, acked []bool) {
	next := 0
	var fill func()
	fill = func() {
		for next < len(ops) {
			k := next
			if skip != nil && skip[k] {
				next++
				continue
			}
			if !ctrl.SubmitWrite(ops[k].addr, ops[k].data, func(units.Time) { acked[k] = true }) {
				ctrl.WhenWriteSpace(fill)
				return
			}
			next++
		}
		ctrl.WhenIdle(func() {})
	}
	eng.At(0, fill)
}

// CrashSweep runs the crash-consistency sweep: for every workload and
// scheme, an oracle run establishes the cell's total pulse count and
// final image, then the cell is re-run with a power cut at every
// Every-th pulse boundary. Each cut is recovered (system.Recover
// semantics via crash.Recover) and resumed on a fresh engine with the
// recovered device and scheme instances, replaying the unacknowledged
// writes under a deep-checking guard. The sweep fails unless, at every
// cut:
//
//   - every acknowledged write with no newer write in flight survives
//     bit-identically (the acknowledged-durability contract),
//   - recovery brings every armed intent's line to its intended data,
//   - the resumed run converges to the oracle's final image on every
//     touched line.
func CrashSweep(opt CrashSweepOptions) (*CrashSweepResult, error) {
	opt.Normalize()
	set, err := ResolveSchemes(opt.Schemes)
	if err != nil {
		return nil, err
	}
	if len(opt.Schemes) == 0 {
		// Default grid: the five compared schemes plus the conventional
		// baseline — tagless, so its torn lines always roll forward: the
		// degenerate corner the others are measured against.
		set = append([]NamedFactory{{"conventional", schemes.NewConventional}}, set...)
	}
	res := &CrashSweepResult{Opt: opt}
	for _, prof := range workload.Profiles() {
		for _, nf := range set {
			cell, err := runCrashCell(prof, nf, opt)
			if err != nil {
				return nil, fmt.Errorf("crash sweep %s/%s: %w", prof.Name, nf.Name, err)
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// runCrashCell sweeps the cut grid of one (workload, scheme) cell.
func runCrashCell(prof workload.Profile, nf NamedFactory, opt CrashSweepOptions) (CrashCell, error) {
	cell := CrashCell{Workload: prof.Name, Scheme: nf.Name}
	ops := crashOps(prof, opt.Options)
	if len(ops) == 0 {
		return cell, nil
	}

	// Oracle run: a disabled injector rides along purely as a boundary
	// counter and ack-contract checker; it never perturbs the run.
	eng := &sim.Engine{}
	dev := pcm.MustNewDevice(opt.Params)
	ctrl := memctrl.New(eng, dev, nf.Factory, crashCtrlConfig())
	counter, err := crash.New(crash.Config{}, opt.Params)
	if err != nil {
		return cell, err
	}
	counter.Bind(eng, dev, ctrl.Schemes())
	ctrl.SetCrash(counter)
	acked := make([]bool, len(ops))
	pump(eng, ctrl, ops, nil, acked)
	eng.Run()
	if err := eng.StopReason(); err != nil {
		return cell, fmt.Errorf("oracle run aborted: %w", err)
	}
	for k := range ops {
		if !acked[k] {
			return cell, fmt.Errorf("oracle run never acknowledged write %d", k)
		}
	}
	cell.TotalPulses = counter.PulsesIssued()

	// The crash-free image: last write to each line wins.
	final := map[pcm.LineAddr][]byte{}
	for _, op := range ops {
		final[op.addr] = op.data
	}

	for _, cut := range cutPoints(cell.TotalPulses, opt.Every, opt.MaxCuts) {
		if err := runOneCut(prof, nf, opt, ops, final, cut, &cell); err != nil {
			return cell, fmt.Errorf("cut at pulse %d: %w", cut, err)
		}
		cell.Cuts++
	}
	return cell, nil
}

// cutPoints returns the Every-grid up to total, subsampled evenly to at
// most maxCuts points so a cap still exercises late-run cuts.
func cutPoints(total, every int64, maxCuts int) []int64 {
	var pts []int64
	for p := every; p <= total; p += every {
		pts = append(pts, p)
	}
	if maxCuts > 0 && len(pts) > maxCuts {
		sub := make([]int64, 0, maxCuts)
		for i := 0; i < maxCuts; i++ {
			sub = append(sub, pts[i*len(pts)/maxCuts])
		}
		pts = sub
	}
	return pts
}

// runOneCut crashes the cell at one pulse boundary, recovers, resumes,
// and asserts the three contracts against the crash-free oracle.
func runOneCut(prof workload.Profile, nf NamedFactory, opt CrashSweepOptions,
	ops []crashOp, final map[pcm.LineAddr][]byte, cut int64, cell *CrashCell) error {
	eng := &sim.Engine{}
	dev := pcm.MustNewDevice(opt.Params)
	ctrl := memctrl.New(eng, dev, nf.Factory, crashCtrlConfig())
	cinj, err := crash.New(crash.Config{AtPulse: cut}, opt.Params)
	if err != nil {
		return err
	}
	cinj.Bind(eng, dev, ctrl.Schemes())
	ctrl.SetCrash(cinj)
	acked := make([]bool, len(ops))
	pump(eng, ctrl, ops, nil, acked)
	eng.Run()

	var ce *crash.CutError
	if err := eng.StopReason(); !errors.As(err, &ce) {
		return fmt.Errorf("run did not stop with a cut (stop reason: %v)", err)
	}
	img := ce.Image

	// Contract A: every acknowledged line with no newer write in flight
	// holds its last acknowledged data at the instant of the cut. A line
	// with an armed intent is legally torn — recovery owns it.
	inflight := map[pcm.LineAddr]bool{}
	for _, in := range img.Intents {
		inflight[in.Addr] = true
	}
	buf := make([]byte, opt.Params.LineBytes)
	for addr, want := range img.Acked {
		if inflight[addr] {
			continue
		}
		img.Dev.PeekLine(addr, buf)
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("acknowledged line %d torn by the cut", addr)
		}
	}

	// Contract B: the recovery pass itself (internal deep validation
	// brings and checks every intent line to its intended data).
	rep, err := crash.Recover(img)
	if err != nil {
		return err
	}
	cell.Intents += rep.Intents
	cell.Clean += rep.Clean
	cell.Rollforwards += rep.Rollforwards
	cell.Reissues += rep.Reissues
	cell.TagRepairs += rep.TagRepairs
	cell.RecoverySets += rep.RecoverySets
	cell.RecoveryResets += rep.RecoveryResets
	cell.RecoveryTime += rep.RecoveryTime

	// Resume on a fresh engine with the recovered device and scheme
	// instances (the durable controller metadata), replaying every write
	// that was never acknowledged. Ops older than a line's last
	// acknowledged write are superseded and must not regress it.
	lastAcked := map[pcm.LineAddr]int{}
	for k := range ops {
		if acked[k] {
			lastAcked[ops[k].addr] = k
		}
	}
	skip := make([]bool, len(ops))
	for k := range ops {
		skip[k] = acked[k] || k < lastAcked[ops[k].addr]
	}
	eng2 := &sim.Engine{}
	ctrl2 := memctrl.NewWithSchemes(eng2, img.Dev, img.Schemes, crashCtrlConfig())
	g := guard.New(opt.Params, guard.Config{Enabled: true, DeepChecks: true})
	g.AdoptShadow(img.Shadow)
	g.SetFingerprint(opt.Seed, prof.Name, nf.Name)
	ctrl2.SetGuard(g)
	reacked := make([]bool, len(ops))
	pump(eng2, ctrl2, ops, skip, reacked)
	eng2.Run()
	if err := eng2.StopReason(); err != nil {
		return fmt.Errorf("resumed run aborted: %w", err)
	}
	if err := g.Err(); err != nil {
		return fmt.Errorf("resumed run guard violation: %w", err)
	}
	for k := range ops {
		if !skip[k] && !reacked[k] {
			return fmt.Errorf("resumed run never acknowledged replayed write %d", k)
		}
	}

	// Contract C: the recovered-and-resumed image is bit-identical to
	// the crash-free oracle on every touched line.
	for addr, want := range final {
		img.Dev.PeekLine(addr, buf)
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("line %d diverges from the crash-free oracle after resume", addr)
		}
	}
	return nil
}
