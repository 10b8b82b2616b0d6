// Package tetriswrite is a bit-accurate simulator of PCM (Phase Change
// Memory) cache-line write scheduling, built around a from-scratch
// implementation of the Tetris Write scheme (Li et al., "Tetris Write:
// Exploring More Write Parallelism Considering PCM Asymmetries",
// ICPP 2016) and of the schemes it is evaluated against: DCW,
// Flip-N-Write, 2-Stage-Write and Three-Stage-Write.
//
// The package offers three levels of use:
//
//   - Scheme level: build a write scheme with NewScheme and plan
//     individual cache-line writes; every plan is a bit-exact pulse
//     schedule whose timing, energy and power draw can be inspected.
//   - System level: RunSystem simulates the paper's full platform — four
//     2 GHz cores running a PARSEC-calibrated synthetic workload against
//     a read-priority memory controller and 8 banks of SLC PCM.
//   - Evaluation level: RunEvaluation and the Figure/Table helpers
//     regenerate every figure and table of the paper's evaluation
//     section.
//
// The implementation is pure Go with no dependencies outside the
// standard library, and every simulation is deterministic given its
// seed.
package tetriswrite

import (
	"fmt"

	"tetriswrite/internal/exp"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/registry"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/system"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/units"
	"tetriswrite/internal/workload"
)

// Re-exported core types. The implementation lives under internal/; these
// aliases are the supported public surface.
type (
	// Params is the PCM device configuration (the paper's Table II).
	Params = pcm.Params
	// Device is the stateful PCM array with energy accounting.
	Device = pcm.Device
	// LineAddr addresses one cache line of the device.
	LineAddr = pcm.LineAddr
	// Scheme plans cache-line writes; all five schemes implement it.
	Scheme = schemes.Scheme
	// Plan is a bit-exact pulse schedule for one cache-line write.
	Plan = schemes.Plan
	// TetrisOptions tune the Tetris Write implementation (ablations).
	TetrisOptions = tetris.Options
	// Workload is a PARSEC-calibrated synthetic workload profile.
	Workload = workload.Profile
	// SystemConfig configures a full-system simulation.
	SystemConfig = system.Config
	// SystemResult is the outcome of one full-system simulation.
	SystemResult = system.Result
	// EvalOptions configure the figure/table experiment harness.
	EvalOptions = exp.Options
	// EvalResults holds a full 8-workload x 5-scheme sweep.
	EvalResults = exp.FullResults
	// Duration is simulated time in picoseconds.
	Duration = units.Duration
)

// DefaultParams returns the paper's Table II configuration.
func DefaultParams() Params { return pcm.DefaultParams() }

// NewDevice creates a PCM device.
func NewDevice(p Params) (*Device, error) { return pcm.NewDevice(p) }

// SchemeNames returns the canonical base scheme names accepted by
// NewScheme, sorted. The paper's table labels ("baseline", "2stage")
// also resolve, as aliases, and so do names composed with a decorator
// ("tetris+remap").
func SchemeNames() []string { return registry.Default().Bases() }

// SchemeDecorators returns the decorator names composable onto any base
// scheme with '+', sorted.
func SchemeDecorators() []string { return registry.Default().Decorators() }

// NewScheme builds a write scheme by name: a canonical base name, an
// alias (baseline, flip-n-write, 2stage, 3stage) or a '+'-composed name
// such as "dcw+remap". Unknown names fail with the sorted catalogue.
func NewScheme(name string, par Params) (Scheme, error) {
	e, err := registry.Default().Resolve(name)
	if err != nil {
		return nil, fmt.Errorf("tetriswrite: %w", err)
	}
	if err := par.Validate(); err != nil {
		return nil, err
	}
	return e.Factory(par), nil
}

// NewTetris builds the Tetris Write scheme with explicit options, for
// ablation studies (flip coding off, arrival-order packing, custom
// analysis overhead).
func NewTetris(par Params, opt TetrisOptions) (Scheme, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	return tetris.NewWithOptions(par, opt), nil
}

// Workloads returns the eight PARSEC-calibrated workload profiles of the
// paper's Table III.
func Workloads() []Workload { return workload.Profiles() }

// WorkloadByName returns the named workload profile.
func WorkloadByName(name string) (Workload, error) { return workload.ProfileByName(name) }

// RunSystem simulates one workload under one scheme on the paper's
// 4-core platform and returns the measured latencies, IPC, energy and
// running time.
func RunSystem(workloadName, schemeName string, cfg SystemConfig) (SystemResult, error) {
	prof, err := workload.ProfileByName(workloadName)
	if err != nil {
		return SystemResult{}, err
	}
	e, err := registry.Default().Resolve(schemeName)
	if err != nil {
		return SystemResult{}, fmt.Errorf("tetriswrite: %w", err)
	}
	f := e.Factory
	if cfg.Params.LineBytes == 0 {
		cfg.Params = DefaultParams()
	}
	res, err := system.Run(prof, f, cfg)
	if err != nil {
		return SystemResult{}, err
	}
	res.Scheme = schemeName
	return res, nil
}

// RunEvaluation runs the full 8-workload x 5-scheme sweep behind
// Figures 11-14. Use the returned results' Figure11..Figure14 and
// EnergyTable methods to render the tables.
func RunEvaluation(opt EvalOptions) (*EvalResults, error) { return exp.RunFullSystem(opt) }

// Figure3 renders the paper's Figure 3: RESET/SET operations per 64-bit
// data unit after inversion, per workload.
func Figure3(opt EvalOptions) string { return exp.Figure3(opt).String() }

// Table3 renders the paper's Table III: workload characteristics.
func Table3(opt EvalOptions) string { return exp.Table3(opt).String() }

// Figure10 renders the paper's Figure 10: average number of write units
// per scheme and workload.
func Figure10(opt EvalOptions) string { return exp.Figure10(opt).String() }

// Figure4 renders the paper's Figure 4: the chip-level timing diagram of
// all five schemes on the worked example of Section III.
func Figure4(par Params) string { return exp.Figure4(par) }

// LineSizeSweep renders the line-size sweep (64/128/256 B — the paper's
// POWER7/zEnterprise motivation) in Figure 10 units.
func LineSizeSweep(opt EvalOptions) string { return exp.LineSizeSweep(opt).String() }

// BudgetSweep renders the mobile power-budget sweep (32 down to 4
// SET-currents per chip) in Figure 10 units.
func BudgetSweep(opt EvalOptions) string { return exp.BudgetSweep(opt).String() }

// Endurance renders the wear/endurance table: bit-writes and hottest-line
// wear per scheme, with and without Start-Gap wear leveling.
func Endurance(opt EvalOptions) (string, error) {
	tb, err := exp.EnduranceTable(opt)
	if err != nil {
		return "", err
	}
	return tb.String(), nil
}

// CheckResult is one verified qualitative claim of the reproduction.
type CheckResult = exp.CheckResult

// Check runs the reproduction certificate: every qualitative claim the
// reproduction makes about the paper's figures, verified at the given
// scale.
func Check(opt EvalOptions) ([]CheckResult, error) { return exp.CheckShapes(opt) }
