package tetriswrite

// Micro-benchmarks for the three layers the structure-of-arrays rewrite
// targets (see DESIGN.md, Performance): the word-parallel cell store,
// the batched pulse emission and the flat cache hit path — plus scheme
// planning over a captured write stream, the workload generator that
// feeds them (DESIGN.md, Workload RNG kernel), trace ingestion
// (DESIGN.md, Trace ingestion) and latency recording.
// They are part of the gated set (Makefile BENCHFILTER, ci.yml bench-gate) so a
// slowdown of these paths shows up as an ns/op or allocs/op cliff.

import (
	"bytes"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"tetriswrite/internal/cache"
	"tetriswrite/internal/memctrl"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/stats"
	"tetriswrite/internal/trace"
	"tetriswrite/internal/units"
	"tetriswrite/internal/workload"
)

// BenchmarkArrayFlipCount measures the SoA cell store's read surface:
// one full-line decode into a scratch buffer plus a flip-tag popcount,
// the operation crash recovery and the deep-check guard
// run per inspected line: one XOR per line word, 4 cells of the
// default x16 geometry each, at 0 allocs/op.
func BenchmarkArrayFlipCount(b *testing.B) {
	par := pcm.DefaultParams()
	arr := schemes.NewArray(par)
	rng := rand.New(rand.NewSource(3))
	const lines = 64
	line := make([]byte, par.LineBytes)
	for a := 0; a < lines; a++ {
		rng.Read(line)
		arr.SyncLogical(pcm.LineAddr(a), line)
	}
	// Set some flip tags the way they arise in practice: replay FNW
	// plans whose dense updates cross the inversion threshold.
	s := schemes.NewFlipNWrite(par)
	old := make([]byte, par.LineBytes)
	for a := 0; a < lines; a++ {
		arr.LogicalInto(old, pcm.LineAddr(a))
		rng.Read(line)
		arr.Apply(pcm.LineAddr(a), s.PlanWrite(pcm.LineAddr(a), old, line))
	}
	scratch := make([]byte, par.LineBytes)
	var flips int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := pcm.LineAddr(i % lines)
		arr.LogicalInto(scratch, addr)
		flips += bits.OnesCount64(arr.FlipTags(addr))
	}
	if flips == 0 {
		b.Fatal("no flip tags set: the benchmark is not exercising the tag path")
	}
}

// BenchmarkSchemePlanWriteDense is the batched-emission stress: every
// cell of the line changes, so unlike the sparse BenchmarkSchemePlanWrite
// the cost is dominated by emitting pulse records for all 32 units —
// the mask-walk in emitStreams and the cursor refill in the Tetris
// domain emitter. Steady-state (freelist-warm), so 0 allocs/op.
func BenchmarkSchemePlanWriteDense(b *testing.B) {
	for _, name := range []string{"dcw", "fnw", "tetris"} {
		b.Run(name, func(b *testing.B) {
			s, err := NewScheme(name, DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			rec, _ := s.(schemes.PlanRecycler)
			rng := rand.New(rand.NewSource(9))
			old := make([]byte, 64)
			new := make([]byte, 64)
			rng.Read(old)
			for i := range new {
				new[i] = ^old[i] // every bit changes: worst-case emission
			}
			cycle := func(i int) {
				plan := s.PlanWrite(LineAddr(i%256), old, new)
				_ = plan.ServiceTime()
				if rec != nil {
					rec.RecyclePlan(plan)
				}
			}
			for i := 0; i < 256; i++ {
				cycle(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle(i)
			}
		})
	}
}

// BenchmarkSchemePlanStream measures per-write planning cost over a
// captured stream of real (old, new) line pairs: the first 4096 writes
// of one vips core, each paired with the line's contents at the time.
// Unlike BenchmarkSchemePlanWrite, which rewrites one fixed pair, every
// op plans a different write with the workload's own transition counts,
// and the stream is captured before the timer so generation is
// excluded. Plans are recycled, so 0 allocs/op. It runs the five schemes
// of the paper's figures; the paper's baseline is dcw.
func BenchmarkSchemePlanStream(b *testing.B) {
	par := pcm.DefaultParams()
	stream := captureWriteStream(b, "vips", 4096, par)
	for _, name := range []string{"dcw", "fnw", "2stage", "3stage", "tetris"} {
		b.Run(name, func(b *testing.B) {
			s, err := NewScheme(name, DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			rec, _ := s.(schemes.PlanRecycler)
			cycle := func(i int) {
				w := &stream[i%len(stream)]
				plan := s.PlanWrite(w.addr, w.old, w.new)
				_ = plan.ServiceTime()
				if rec != nil {
					rec.RecyclePlan(plan)
				}
			}
			// One full pass registers every line's coding state and
			// grows the scratch arenas to the stream's high-water mark.
			for i := range stream {
				cycle(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle(i)
			}
		})
	}
}

// linePair is one captured write: the line's contents before and after.
type linePair struct {
	addr     pcm.LineAddr
	old, new []byte
}

// captureWriteStream returns the first n writes of core 0 of the named
// workload (seed 1), each paired with the line's prior contents: the
// program's initial image on first touch, the previous write after.
func captureWriteStream(b *testing.B, profile string, n int, par pcm.Params) []linePair {
	prof, err := workload.ProfileByName(profile)
	if err != nil {
		b.Fatal(err)
	}
	prog := workload.NewProgram(prof, 1, 1, par)
	g := prog.Generator(0)
	lines := map[pcm.LineAddr][]byte{}
	out := make([]linePair, 0, n)
	for len(out) < n {
		op := g.Next()
		if !op.Write {
			continue
		}
		old, ok := lines[op.Addr]
		if !ok {
			old = prog.InitialContents(op.Addr)
		}
		next := append([]byte(nil), op.Data...)
		out = append(out, linePair{addr: op.Addr, old: old, new: next})
		lines[op.Addr] = next
	}
	return out
}

// BenchmarkCacheHit measures the L1 hit path of the cache hierarchy:
// one set-indexed probe of the flat tag array plus the LRU promotion
// shuffle and the data copy-out. One op is one whole read transaction
// through the simulation engine, so the number includes the event
// scheduling the hit rides on.
func BenchmarkCacheHit(b *testing.B) {
	eng := &sim.Engine{}
	dev := pcm.MustNewDevice(pcm.DefaultParams())
	ctrl := memctrl.New(eng, dev, schemes.NewDCW, memctrl.Config{OpportunisticWrites: true})
	h, err := cache.New(eng, ctrl, cache.DefaultLevels(units.NewClock(2e9)))
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 64)
	eng.At(0, func() { h.SubmitWrite(5, data, nil) })
	eng.Run()
	hits := 0
	onDone := func(units.Time, []byte) { hits++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.SubmitRead(5, onDone)
		eng.Run()
	}
	b.StopTimer()
	if hits != b.N {
		b.Fatalf("%d of %d reads completed", hits, b.N)
	}
}

// BenchmarkLatencyAdd measures recording one latency sample, which the
// controller does for every completed request: a bit-length table
// lookup, at most a few boundary compares and a counter bump in the
// dense histogram (DESIGN.md, Latency histogram). The samples are
// log-normal around 100 ns, the spread of memory latencies, so the
// boundary compares see varied buckets. Must stay at 0 allocs/op.
func BenchmarkLatencyAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var samples [1024]units.Duration
	for i := range samples {
		samples[i] = units.Duration(math.Exp(rng.NormFloat64()) * float64(100*units.Nanosecond))
	}
	var l stats.Latency
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Add(samples[i&(len(samples)-1)])
	}
	b.StopTimer()
	if l.Count() != int64(b.N) {
		b.Fatalf("recorded %d of %d samples", l.Count(), b.N)
	}
}

// BenchmarkGeneratorNext measures workload synthesis alone: one core's
// Generator.Next, which draws the think gap, the read/write choice and
// the address, and for a write builds the payload from about 330 RNG
// draws (a Poisson count and a partial Fisher–Yates per data unit).
// vips is the write-heaviest profile (38% writes), canneal the most
// read-dominated (6%), so the two bracket the per-op cost.
func BenchmarkGeneratorNext(b *testing.B) {
	for _, name := range []string{"vips", "canneal"} {
		b.Run(name, func(b *testing.B) {
			prof, err := workload.ProfileByName(name)
			if err != nil {
				b.Fatal(err)
			}
			g := workload.NewProgram(prof, 4, 1, pcm.DefaultParams()).Generator(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = g.Next()
			}
		})
	}
}

// BenchmarkTraceParse measures trace ingestion the way a replay pays
// for it: trace.Parse of the 300k-record, 4-core vips trace the
// benchmark's vips_trace_tetris workload replays, then one
// trace.CoreSource per core drained to its last operation. One op is
// one whole trace; allocs/op counts the allocations of one ingestion.
func BenchmarkTraceParse(b *testing.B) {
	const cores, records = 4, 300_000
	par := pcm.DefaultParams()
	prof, err := workload.ProfileByName("vips")
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, cores, par.LineBytes)
	if err != nil {
		b.Fatal(err)
	}
	var perCore [cores]int
	for _, rec := range trace.Generate(prof, cores, 1, par, records) {
		if err := w.Write(rec); err != nil {
			b.Fatal(err)
		}
		perCore[rec.Core]++
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, recs, err := trace.Parse(bytes.NewReader(data))
		if err != nil || len(recs) != records {
			b.Fatalf("parsed %d records, err %v", len(recs), err)
		}
		for c, n := range perCore {
			src := trace.NewCoreSource(recs, c)
			for ; n > 0; n-- {
				src.Next()
			}
			// Drained: the source now idles the core.
			if op := src.Next(); op.Think < 1<<40 {
				b.Fatalf("core %d: operation past the trace's last, think %d", c, op.Think)
			}
		}
	}
}
