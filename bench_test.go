package tetriswrite

// One benchmark per table and figure of the paper's evaluation section.
// Each benchmark regenerates its experiment at a reduced scale and
// reports the experiment's headline numbers as custom metrics alongside
// the usual ns/op, so `go test -bench=.` doubles as a quick smoke run of
// the whole evaluation. Use cmd/tetrisbench for full-scale tables.

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"tetriswrite/internal/exp"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/system"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/units"
	"tetriswrite/internal/workload"
)

func benchEvalOptions() EvalOptions {
	return EvalOptions{Writes: 500, InstrBudget: 50_000, Seed: 1}
}

// geomeanRow extracts the labelled row's numeric cells from a rendered
// table.
func rowOf(out, label string) []float64 {
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 || fields[0] != label {
			continue
		}
		var vals []float64
		for _, f := range fields[1:] {
			if v, err := strconv.ParseFloat(f, 64); err == nil {
				vals = append(vals, v)
			}
		}
		return vals
	}
	return nil
}

// BenchmarkTable3Workloads measures workload-generator throughput: the
// substrate behind every experiment's Table III characteristics.
func BenchmarkTable3Workloads(b *testing.B) {
	for _, prof := range workload.Profiles() {
		b.Run(prof.Name, func(b *testing.B) {
			prog := workload.NewProgram(prof, 4, 1, DefaultParams())
			g := prog.Generator(0)
			var instr int64
			writes := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op := g.Next()
				instr += op.Think
				if op.Write {
					writes++
				}
			}
			if instr > 0 {
				b.ReportMetric(float64(b.N)/float64(instr)*1000, "apki")
			}
		})
	}
}

// BenchmarkFig3BitStats regenerates Figure 3 (bit-change statistics) and
// reports the suite-average SET/RESET counts per 64-bit unit.
func BenchmarkFig3BitStats(b *testing.B) {
	opt := benchEvalOptions()
	opt.Writes = 200
	var avg []float64
	for i := 0; i < b.N; i++ {
		avg = rowOf(exp.Figure3(opt).String(), "average")
	}
	if len(avg) >= 3 {
		b.ReportMetric(avg[0], "resets/unit")
		b.ReportMetric(avg[1], "sets/unit")
	}
}

// BenchmarkFig4Sample plans the Figure 4 worked example.
func BenchmarkFig4Sample(b *testing.B) {
	par := DefaultParams()
	var out string
	for i := 0; i < b.N; i++ {
		out = Figure4(par)
	}
	_ = out
}

// BenchmarkFig10WriteUnits regenerates Figure 10 and reports the
// suite-average write units of the baseline and of Tetris Write.
func BenchmarkFig10WriteUnits(b *testing.B) {
	opt := benchEvalOptions()
	opt.Writes = 200
	var avg []float64
	for i := 0; i < b.N; i++ {
		avg = rowOf(exp.Figure10(opt).String(), "average")
	}
	if len(avg) == 5 {
		b.ReportMetric(avg[0], "wu-baseline")
		b.ReportMetric(avg[3], "wu-3stage")
		b.ReportMetric(avg[4], "wu-tetris")
	}
}

// fullSystemBench runs the 8x5 sweep once per iteration and reports the
// requested figure's geomean row.
func fullSystemBench(b *testing.B, figure string) {
	opt := benchEvalOptions()
	var fr *exp.FullResults
	var err error
	for i := 0; i < b.N; i++ {
		fr, err = exp.RunFullSystem(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	var out string
	switch figure {
	case "fig11":
		out = fr.Figure11().String()
	case "fig12":
		out = fr.Figure12().String()
	case "fig13":
		out = fr.Figure13().String()
	case "fig14":
		out = fr.Figure14().String()
	}
	g := rowOf(out, "geomean")
	if len(g) == 5 {
		b.ReportMetric(g[1], "fnw")
		b.ReportMetric(g[2], "2stage")
		b.ReportMetric(g[3], "3stage")
		b.ReportMetric(g[4], "tetris")
	}
}

// BenchmarkFig11ReadLatency regenerates Figure 11 (read latency
// normalized to the DCW baseline; lower is better).
func BenchmarkFig11ReadLatency(b *testing.B) { fullSystemBench(b, "fig11") }

// BenchmarkFig12WriteLatency regenerates Figure 12 (write latency
// normalized to the baseline).
func BenchmarkFig12WriteLatency(b *testing.B) { fullSystemBench(b, "fig12") }

// BenchmarkFig13IPC regenerates Figure 13 (IPC improvement over the
// baseline; higher is better).
func BenchmarkFig13IPC(b *testing.B) { fullSystemBench(b, "fig13") }

// BenchmarkFig14RunningTime regenerates Figure 14 (running time
// normalized to the baseline).
func BenchmarkFig14RunningTime(b *testing.B) { fullSystemBench(b, "fig14") }

// BenchmarkSchemePlanWrite measures per-scheme planning cost on a sparse
// write: the per-write work a memory controller would add. Plans are
// recycled back to the scheme after use, exactly as the memory
// controller does, so this measures the steady-state (freelist-warm)
// path — 0 allocs/op is the gated expectation, and any allocation here
// is a hot-path regression.
func BenchmarkSchemePlanWrite(b *testing.B) {
	for _, name := range SchemeNames() {
		b.Run(name, func(b *testing.B) { benchPlanWrite(b, name) })
	}
}

// BenchmarkComposedSchemePlanWrite measures the decorator overhead of
// registry-composed schemes on the same steady-state path: the flipmin
// re-encoding pass, the remap density/wear ledger and the mlc P&V bill
// all sit on the per-write hot path and are expected to stay at
// 0 allocs/op like the bases they wrap.
func BenchmarkComposedSchemePlanWrite(b *testing.B) {
	for _, name := range []string{
		"dcw+flipmin", "dcw+remap", "tetris+remap", "dcw+mlc", "dcw+flipmin+remap",
	} {
		b.Run(name, func(b *testing.B) { benchPlanWrite(b, name) })
	}
}

func benchPlanWrite(b *testing.B, name string) {
	s, err := NewScheme(name, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	rec, _ := s.(schemes.PlanRecycler)
	old := make([]byte, 64)
	new := make([]byte, 64)
	for i := 0; i < 10; i++ {
		new[i*6%64] ^= 1 << (i % 8)
	}
	cycle := func(i int) {
		plan := s.PlanWrite(LineAddr(i%256), old, new)
		_ = plan.ServiceTime()
		if rec != nil {
			rec.RecyclePlan(plan)
		}
	}
	// Warm the pulse freelist and scratch arenas before measuring.
	for i := 0; i < 256; i++ {
		cycle(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(i)
	}
}

// benchEngineLongTrace drives the bare event engine through the steady
// state of a trace replay: a fixed in-flight event population where
// every popped event reschedules itself with a delay drawn from the
// memory system's mix (same-cycle follow-ups, device-timing delays in
// the tens of ns to tens of us, rare far-future maintenance work). One
// op is one event.
func benchEngineLongTrace(b *testing.B, population int) {
	// The delay stream is precomputed so the measured loop is queue cost,
	// not random-number generation.
	delays := longTraceDelays(1 << 16)
	eng := &sim.Engine{}
	pos := 0
	var fn func()
	fn = func() {
		eng.After(delays[pos&(len(delays)-1)], fn)
		pos++
	}
	for i := 0; i < population; i++ {
		fn()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// longTraceDelays builds a deterministic delay table modelling a memory
// system's event mix: 10% same-cycle follow-ups (queue drains, callback
// chains), 75% device-timing delays (tRead up to a long write), 14%
// scheduling-horizon delays up to 100 us, and 1% far-future maintenance
// work far beyond every other pending event.
func longTraceDelays(n int) []units.Duration {
	rng := uint64(1)
	next := func() uint64 {
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	out := make([]units.Duration, n)
	for i := range out {
		r := next()
		switch c := r % 100; {
		case c < 10:
			out[i] = 0
		case c < 85:
			out[i] = 60*units.Nanosecond + units.Duration(r>>8)%(4*units.Microsecond)
		case c < 99:
			out[i] = units.Duration(r>>8) % (100 * units.Microsecond)
		default:
			out[i] = 2 * units.Second
		}
	}
	return out
}

// BenchmarkEngineLongTrace measures the event engine on the long-trace
// event pattern across pending-population sizes. 4 and 16 bracket what
// full-system runs keep pending (2-12 events on the Table II platform,
// mostly 4); 4Ki and 32Ki are the large-population tail, where the
// heap's O(log n) sift grows and a bucketed queue would win.
func BenchmarkEngineLongTrace(b *testing.B) {
	for _, pop := range []struct {
		name string
		n    int
	}{{"4", 4}, {"16", 16}, {"4Ki", 1 << 12}, {"32Ki", 1 << 15}} {
		b.Run("pending-"+pop.name, func(b *testing.B) { benchEngineLongTrace(b, pop.n) })
	}
}

// BenchmarkFullSystemSingle measures one full-system simulation
// (canneal under Tetris) end to end. At about 150 ops per core, each
// core's stream ends inside the workload pipeline's inline batch, so
// the run starts no producer goroutine.
func BenchmarkFullSystemSingle(b *testing.B) {
	benchFullSystem(b, "canneal", 50_000)
}

// BenchmarkFullSystemLong is BenchmarkFullSystemSingle on vips at 1.5M
// instructions per core: about 6,200 ops per core, so each core's
// stream crosses from the inline batch to a producer goroutine and
// spans twelve of its batches. It runs at GOMAXPROCS 1, where the
// producers share the simulation's one CPU. That is the pipeline's
// worst case, so ns/op gates its hand-off cost rather than the spare
// CPUs of the host. It also keeps allocs/op exact: with two Ps the
// runtime's goroutine and channel-waiter free lists migrate between
// per-P caches and allocs/op drifts by 1 or 2 from run to run.
func BenchmarkFullSystemLong(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	benchFullSystem(b, "vips", 1_500_000)
}

func benchFullSystem(b *testing.B, profile string, instr int64) {
	prof, _ := workload.ProfileByName(profile)
	cfg := system.Config{Params: DefaultParams(), InstrBudget: instr}
	for i := 0; i < b.N; i++ {
		_, err := system.Run(prof, tetris.New, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
}
