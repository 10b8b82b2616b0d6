// Package guard is the runtime invariant checker of the simulation
// platform. The paper's central safety claim — Tetris Write packs
// SET/RESET pulses into the fewest write units while never exceeding the
// per-chip power budget — is exactly the kind of property a
// parallelism-under-constraint scheduler silently violates once it is
// composed with other machinery (wear leveling, verify-retry, write pausing).
// Instead of trusting the composition, a Guard validates it per issued
// write unit while the simulation runs:
//
//   - power: the summed write current of every plan stays within the
//     per-chip budget (or the bank budget under a Global Charge Pump);
//   - coverage: no cell is pulsed twice in one plan and every pulse lies
//     inside the plan's write phase (cheap), and — with DeepChecks — the
//     pulse train replayed on a shadow cell array leaves exactly the
//     intended logical contents, i.e. every flipped bit was scheduled in
//     exactly one write unit;
//   - queues: controller queue occupancies stay within their configured
//     32-entry bounds;
//   - clock: the simulated clock observed at every check is monotone.
//
// A violation is reported once, as a structured *ViolationError carrying
// the run fingerprint (seed, workload, scheme, cycle) — the tuple that
// reproduces the failure — and the guard's owner (system.RunCtx) stops
// the engine so a corrupted simulation cannot keep accumulating
// plausible-looking statistics.
//
// Checks only read state; an enabled guard never changes simulated
// behaviour, so guarded and unguarded runs are bit-identical.
package guard

import (
	"fmt"

	"tetriswrite/internal/pcm"
	"tetriswrite/internal/power"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/units"
)

// Config selects the checking depth.
type Config struct {
	// Enabled turns the guard on. The zero value performs no checks and
	// costs nothing.
	Enabled bool
	// DeepChecks additionally replays every plan on a shadow encoded-cell
	// array and verifies the decoded logical contents — exhaustive
	// validation, roughly doubling the per-write cost. Meant for tests
	// and debugging runs, not sweeps.
	DeepChecks bool
}

// Fingerprint identifies one run for failure reproduction: re-running
// the same workload and scheme with the same seed replays the violation
// at the same cycle.
type Fingerprint struct {
	Seed     int64
	Workload string
	Scheme   string
	Cycle    units.Time // simulated time of the violation
}

func (f Fingerprint) String() string {
	return fmt.Sprintf("seed=%d workload=%s scheme=%s cycle=%v", f.Seed, f.Workload, f.Scheme, f.Cycle)
}

// Violation kinds.
const (
	KindPower    = "power-budget"
	KindCoverage = "pulse-coverage"
	KindQueue    = "queue-bound"
	KindClock    = "clock-monotonicity"
)

// ViolationError is one detected invariant violation. Only the first
// violation of a run is recorded: everything after a corrupted step is
// noise.
type ViolationError struct {
	Kind   string // one of the Kind constants
	Fp     Fingerprint
	Detail string
}

func (e *ViolationError) Error() string {
	return fmt.Sprintf("guard: %s violation [%s]: %s", e.Kind, e.Fp, e.Detail)
}

// Stats counts the checks a guard performed.
type Stats struct {
	WritePlans  int64 // write plans checked
	QueueChecks int64
	ClockChecks int64
	DeepReplays int64 // shadow-array replays (DeepChecks only)
}

// Guard validates invariants for one run. It is driven from the
// simulation engine's goroutine, like the controller that calls it, and
// needs no locking.
type Guard struct {
	cfg    Config
	par    pcm.Params
	budget power.Budget
	fp     Fingerprint

	last      units.Time
	violation *ViolationError
	// onViolation, when set, runs once with the first violation — the
	// owner's chance to stop the engine immediately.
	onViolation func(*ViolationError)

	shadow *schemes.Array // DeepChecks: pulse-accurate encoded-cell oracle
	stats  Stats
}

// New builds a guard for a device with the given parameters.
func New(par pcm.Params, cfg Config) *Guard {
	g := &Guard{cfg: cfg, par: par, budget: schemes.PowerBudget(par)}
	if cfg.DeepChecks {
		g.shadow = schemes.NewArray(par)
	}
	return g
}

// AdoptShadow replaces the deep-check oracle with an existing encoded
// cell array. A run resumed after crash recovery must validate against
// the recovered shadow: its schemes carry flip-tag history that a fresh
// all-zero shadow would contradict on the first write to a recovered
// line. No-op unless DeepChecks is on.
func (g *Guard) AdoptShadow(arr *schemes.Array) {
	if g.cfg.DeepChecks && arr != nil {
		g.shadow = arr
	}
}

// SetFingerprint records the run identity stamped into violations.
func (g *Guard) SetFingerprint(seed int64, workload, scheme string) {
	g.fp.Seed, g.fp.Workload, g.fp.Scheme = seed, workload, scheme
}

// Enabled reports whether the guard performs any checks.
func (g *Guard) Enabled() bool { return g != nil && g.cfg.Enabled }

// Err returns the first recorded violation, or nil.
func (g *Guard) Err() error {
	if g == nil || g.violation == nil {
		return nil
	}
	return g.violation
}

// Stats returns a snapshot of the check counters.
func (g *Guard) Stats() Stats { return g.stats }

// OnViolation registers fn to run once, synchronously, when the first
// violation is recorded.
func (g *Guard) OnViolation(fn func(*ViolationError)) { g.onViolation = fn }

// report records the first violation and fires the owner hook.
func (g *Guard) report(kind string, at units.Time, format string, args ...any) {
	if g.violation != nil {
		return
	}
	fp := g.fp
	fp.Cycle = at
	g.violation = &ViolationError{Kind: kind, Fp: fp, Detail: fmt.Sprintf(format, args...)}
	if g.onViolation != nil {
		g.onViolation(g.violation)
	}
}

// active reports whether checks should run at all.
func (g *Guard) active() bool {
	return g != nil && g.cfg.Enabled && g.violation == nil
}

// CheckClock verifies the observed simulated clock never runs backwards.
func (g *Guard) CheckClock(now units.Time) {
	if !g.active() {
		return
	}
	g.stats.ClockChecks++
	if now < g.last {
		g.report(KindClock, now, "clock moved backwards: %v after %v", now, g.last)
		return
	}
	g.last = now
}

// CheckQueues verifies controller queue occupancies against their
// capacities.
func (g *Guard) CheckQueues(now units.Time, reads, writes, readCap, writeCap int) {
	if !g.active() {
		return
	}
	g.CheckClock(now)
	g.stats.QueueChecks++
	switch {
	case reads < 0 || reads > readCap:
		g.report(KindQueue, now, "read queue occupancy %d outside [0, %d]", reads, readCap)
	case writes < 0 || writes > writeCap:
		g.report(KindQueue, now, "write queue occupancy %d outside [0, %d]", writes, writeCap)
	}
}

// CheckWritePlan validates one write plan issued at time now for a line
// whose stored contents are old and whose intended contents are new.
// Cheap checks (structure, power) always run; with DeepChecks the pulse
// train is additionally replayed on the shadow array and must decode to
// exactly new.
func (g *Guard) CheckWritePlan(now units.Time, addr pcm.LineAddr, old, new []byte, plan schemes.Plan) {
	if !g.active() {
		return
	}
	g.CheckClock(now)
	g.stats.WritePlans++
	// Structure (pulses inside the write phase, non-empty masks, no cell
	// pulsed twice) and power (peak simultaneous draw against the
	// per-chip budget).
	if err := plan.Validate(g.par); err != nil {
		g.report(KindCoverage, now, "line %d: %v", addr, err)
		return
	}
	if err := g.budget.Check(plan.Profile(units.Time(0))); err != nil {
		g.report(KindPower, now, "line %d: %v (budget %d per chip, %d chips, gcp=%v)",
			addr, err, g.budget.PerChip, g.budget.Chips, g.budget.GCP)
		return
	}
	if !g.cfg.DeepChecks {
		return
	}
	// Deep: replay on the shadow encoded-cell array. Re-anchor the data
	// cells to the device's actual old image first (fault injection makes
	// the device drift from the pure pulse-train model; the scheme plans
	// from the real image, so the oracle must too), keeping the flip
	// cells, which only pulses ever change.
	g.stats.DeepReplays++
	g.shadow.SyncLogical(addr, old)
	g.shadow.Apply(addr, plan)
	got := g.shadow.Logical(addr)
	for i := range got {
		if got[i] != new[i] {
			g.report(KindCoverage, now,
				"line %d: replayed pulse train decodes wrong contents (first mismatch at byte %d: got %02x want %02x)",
				addr, i, got[i], new[i])
			return
		}
	}
}
