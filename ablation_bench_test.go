package tetriswrite

// Ablation benchmarks for the design choices DESIGN.md calls out. Each
// reports the Figure 10 metric (mean write units per cache-line write,
// lower is better) under one knob, so `go test -bench Ablation` quantifies
// what every ingredient of Tetris Write buys.

import (
	"testing"

	"tetriswrite/internal/exp"
	"tetriswrite/internal/memctrl"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/units"
	"tetriswrite/internal/workload"
)

func ablationOpts() exp.Options {
	return exp.Options{Writes: 500, Seed: 2}
}

func ablationWorkload(b *testing.B) workload.Profile {
	prof, err := workload.ProfileByName("dedup") // dense enough to stress packing
	if err != nil {
		b.Fatal(err)
	}
	return prof
}

// BenchmarkAblationFlipCoding: the read stage's inversion coding on vs
// off. Without it, dense writes cost many more cells and pack worse.
func BenchmarkAblationFlipCoding(b *testing.B) {
	prof := ablationWorkload(b)
	for _, tc := range []struct {
		name string
		opt  tetris.Options
	}{
		{"flip-on", tetris.Options{}},
		{"flip-off", tetris.Options{DisableFlip: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			par := DefaultParams()
			var wu float64
			for i := 0; i < b.N; i++ {
				wu = exp.MeasureWriteUnits(prof, tetris.NewWithOptions(par, tc.opt), ablationOpts())
			}
			b.ReportMetric(wu, "writeunits")
		})
	}
}

// BenchmarkAblationPackOrder: first-fit-decreasing (the paper's sort) vs
// plain arrival-order first-fit.
func BenchmarkAblationPackOrder(b *testing.B) {
	prof := ablationWorkload(b)
	for _, tc := range []struct {
		name string
		opt  tetris.Options
	}{
		{"ffd", tetris.Options{}},
		{"arrival", tetris.Options{ArrivalOrder: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			par := DefaultParams()
			var wu float64
			for i := 0; i < b.N; i++ {
				wu = exp.MeasureWriteUnits(prof, tetris.NewWithOptions(par, tc.opt), ablationOpts())
			}
			b.ReportMetric(wu, "writeunits")
		})
	}
}

// BenchmarkAblationGCP: bank-wide budget sharing (Global Charge Pump) vs
// per-chip pumps. Without sharing, the chip with the densest slice of a
// data unit gates the schedule.
func BenchmarkAblationGCP(b *testing.B) {
	prof := ablationWorkload(b)
	for _, gcp := range []bool{true, false} {
		name := "gcp-on"
		if !gcp {
			name = "gcp-off"
		}
		b.Run(name, func(b *testing.B) {
			par := DefaultParams()
			par.GlobalChargePump = gcp
			var wu float64
			for i := 0; i < b.N; i++ {
				wu = exp.MeasureWriteUnits(prof, tetris.New(par), ablationOpts())
			}
			b.ReportMetric(wu, "writeunits")
		})
	}
}

// BenchmarkAblationBudget: the mobile power sweep — per-chip budget from
// the paper's 32 down to 4 SET-currents.
func BenchmarkAblationBudget(b *testing.B) {
	prof := ablationWorkload(b)
	for _, budget := range []int{32, 16, 8, 4} {
		b.Run(map[int]string{32: "budget-32", 16: "budget-16", 8: "budget-08", 4: "budget-04"}[budget], func(b *testing.B) {
			par := DefaultParams()
			par.ChipBudget = budget
			var wu float64
			for i := 0; i < b.N; i++ {
				wu = exp.MeasureWriteUnits(prof, tetris.New(par), ablationOpts())
			}
			b.ReportMetric(wu, "writeunits")
		})
	}
}

// BenchmarkAblationK: sensitivity to the time-asymmetry ratio K =
// Tset/Treset, swept by scaling Treset (K = 2, 4, 8, 16). Larger K means
// finer sub-write-units and more gaps to hide write-0s in.
func BenchmarkAblationK(b *testing.B) {
	prof := ablationWorkload(b)
	for _, k := range []int{2, 4, 8, 16} {
		b.Run(map[int]string{2: "K-02", 4: "K-04", 8: "K-08", 16: "K-16"}[k], func(b *testing.B) {
			par := DefaultParams()
			par.TReset = par.TSet / units.Duration(k)
			if par.K() != k {
				b.Fatalf("K = %d, want %d", par.K(), k)
			}
			var wu float64
			for i := 0; i < b.N; i++ {
				wu = exp.MeasureWriteUnits(prof, tetris.New(par), ablationOpts())
			}
			b.ReportMetric(wu, "writeunits")
		})
	}
}

// BenchmarkAblationAnalysisOverhead: service-time impact of the analysis
// stage (none, the paper's 41 cycles, a pessimistic 164).
func BenchmarkAblationAnalysisOverhead(b *testing.B) {
	prof := ablationWorkload(b)
	for _, tc := range []struct {
		name   string
		cycles int
	}{
		{"cycles-0", -1},
		{"cycles-41", 41},
		{"cycles-164", 164},
	} {
		b.Run(tc.name, func(b *testing.B) {
			par := DefaultParams()
			s := tetris.NewWithOptions(par, tetris.Options{AnalysisCycles: tc.cycles})
			old := make([]byte, 64)
			new := make([]byte, 64)
			new[0] = 0xFF
			var svc float64
			for i := 0; i < b.N; i++ {
				plan := s.PlanWrite(LineAddr(i%64), old, new)
				svc = plan.ServiceTime().Nanoseconds()
			}
			b.ReportMetric(svc, "service-ns")
		})
	}
	_ = prof
}

// BenchmarkAblationWritePausing: full-system effect of letting reads
// pause in-flight writes (Qureshi et al., HPCA'10) on the baseline and on
// Tetris Write. The shorter Tetris writes leave less to pause, so the
// technique helps the baseline more — i.e. the two are partially
// complementary.
func BenchmarkAblationWritePausing(b *testing.B) {
	prof, err := workload.ProfileByName("vips")
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		scheme  string
		pausing bool
	}{
		{"baseline-nopause", "dcw", false},
		{"baseline-pause", "dcw", true},
		{"tetris-nopause", "tetris", false},
		{"tetris-pause", "tetris", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var readNS float64
			for i := 0; i < b.N; i++ {
				res, err := RunSystem(prof.Name, tc.scheme, SystemConfig{
					InstrBudget: 50_000,
					Ctrl:        memctrl.Config{WritePausing: tc.pausing},
				})
				if err != nil {
					b.Fatal(err)
				}
				readNS = res.ReadLatency.Nanoseconds()
			}
			b.ReportMetric(readNS, "readlat-ns")
		})
	}
}

// BenchmarkAblationSubarrays: read latency with 1/2/4/8 subarrays per
// bank on a write-heavy workload — the bank-internal parallelism of the
// paper's references [13][15], orthogonal to the write scheme.
func BenchmarkAblationSubarrays(b *testing.B) {
	for _, sub := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "sub-1", 2: "sub-2", 4: "sub-4", 8: "sub-8"}[sub], func(b *testing.B) {
			var readNS float64
			for i := 0; i < b.N; i++ {
				res, err := RunSystem("vips", "dcw", SystemConfig{
					InstrBudget: 50_000,
					Ctrl:        memctrl.Config{Subarrays: sub},
				})
				if err != nil {
					b.Fatal(err)
				}
				readNS = res.ReadLatency.Nanoseconds()
			}
			b.ReportMetric(readNS, "readlat-ns")
		})
	}
}
