// Package workload provides synthetic multi-threaded memory workloads
// calibrated to the paper's evaluation: one generator per PARSEC 2.0
// program used in the paper, matching Table III (memory reads and writes
// per kilo-instruction, data-sharing level) and Figure 3 (the measured
// number of SET and RESET operations per 64-bit data unit after
// inversion).
//
// The paper's traces are not available (GEM5 + PARSEC), so these
// generators are the documented substitution: the evaluation depends on
// the workloads only through (a) their memory intensity and read/write
// mix, and (b) the bit-change statistics of the written data — both of
// which the paper publishes and these generators reproduce. Addresses
// follow a Zipf distribution over a per-core private region plus a shared
// region sized by the program's sharing level, and every write carries a
// real 64-byte payload mutated from the generator's shadow of memory so
// the bit-level write schemes see realistic transition vectors.
package workload

import (
	"fmt"
	"math"

	"tetriswrite/internal/linestore"
	"tetriswrite/internal/pcm"
)

// Profile describes one synthetic workload.
type Profile struct {
	Name   string
	Domain string // application domain, from Table III

	// Memory intensity (Table III): memory reads and writes per
	// kilo-instruction.
	RPKI, WPKI float64

	// Bit-change statistics (Figure 3): mean SET and RESET operations
	// per 64-bit data unit of a written line, after inversion coding.
	MeanSets, MeanResets float64

	// Sharing is the fraction of accesses that target the shared region
	// (derived from Table III's data-sharing level: low ~ 0.05,
	// medium ~ 0.15, high ~ 0.35).
	Sharing float64

	// PrivateLines and SharedLines size the address regions per core and
	// for the whole program. Zero means the package defaults.
	PrivateLines int
	SharedLines  int

	// ZipfS is the Zipf skew of intra-region accesses (default 1.2).
	ZipfS float64

	// UntouchedUnits is the probability that a written cache line leaves
	// one of its 64-bit data units completely unchanged — the knob that
	// makes per-unit counts over-dispersed like real data.
	UntouchedUnits float64

	// Burstiness adds two-phase (Markov-modulated) arrival behaviour:
	// the generator alternates between a burst phase with think gaps
	// scaled by (1-Burstiness) and an idle phase scaled by
	// (1+Burstiness), switching phases with probability 5% per access.
	// The mean gap — and therefore RPKI/WPKI — is preserved; only the
	// variance grows. 0 (the default) keeps plain geometric gaps.
	Burstiness float64
}

// Profiles returns the eight PARSEC 2.0 workloads of the paper's
// Table III, calibrated so the suite-wide means match the paper's
// Observation 1: ~9.6 bit-writes per 64-bit unit, ~2:1 SET-dominant
// (6.7 SET + 2.9 RESET), with vips and ferret closer to fifty-fifty.
func Profiles() []Profile {
	return []Profile{
		{Name: "blackscholes", Domain: "Financial Analysis", RPKI: 0.04, WPKI: 0.02,
			MeanSets: 1.4, MeanResets: 0.6, Sharing: 0.05},
		{Name: "bodytrack", Domain: "Computer Vision", RPKI: 0.72, WPKI: 0.24,
			MeanSets: 6.0, MeanResets: 2.0, Sharing: 0.25},
		{Name: "canneal", Domain: "Engineering", RPKI: 2.76, WPKI: 0.19,
			MeanSets: 5.5, MeanResets: 1.0, Sharing: 0.35},
		{Name: "dedup", Domain: "Enterprise Storage", RPKI: 0.82, WPKI: 0.49,
			MeanSets: 11.0, MeanResets: 4.0, Sharing: 0.35},
		{Name: "ferret", Domain: "Similarity Search", RPKI: 1.67, WPKI: 0.95,
			MeanSets: 6.0, MeanResets: 6.0, Sharing: 0.35},
		{Name: "freqmine", Domain: "Data Mining", RPKI: 0.62, WPKI: 0.25,
			MeanSets: 5.5, MeanResets: 1.5, Sharing: 0.25},
		{Name: "swaptions", Domain: "Financial Analysis", RPKI: 0.04, WPKI: 0.02,
			MeanSets: 3.2, MeanResets: 0.8, Sharing: 0.05},
		{Name: "vips", Domain: "Media Processing", RPKI: 2.56, WPKI: 1.56,
			MeanSets: 11.0, MeanResets: 8.0, Sharing: 0.15},
	}
}

// ProfileByName returns the named profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q", name)
}

// Op is one memory operation of a core's instruction stream.
type Op struct {
	// Think is the number of instructions the core retires before
	// issuing this access.
	Think int64
	// Write indicates a memory write; Data then holds the full line
	// payload (reads carry nil Data). A Generator's Data is a buffer the
	// generator owns: it stays valid until that generator's next Next
	// call, which overwrites it. Callers that keep a payload past that
	// must copy it.
	Write bool
	Addr  pcm.LineAddr
	Data  []byte
}

const (
	defaultPrivateLines = 8192
	defaultSharedLines  = 8192
	defaultZipfS        = 1.2
	defaultUntouched    = 0.35
)

// Generator produces one core's deterministic operation stream. Cores of
// the same program share the shared-region shadow through the Program
// that created them.
type Generator struct {
	prof     Profile
	core     int
	rng      source
	zipfPriv zipf
	zipfShrd zipf
	prog     *Program
	privBase pcm.LineAddr
	frontier pcm.LineAddr // next fresh line for this core
	frontEnd pcm.LineAddr
	meanGap  float64
	inBurst  bool
	// freshFrac is the fraction of writes that allocate a fresh line:
	// (MeanSets-MeanResets)/(MeanSets+MeanResets). Fresh lines start all
	// zeros (like untouched PCM), so their first write is pure SETs;
	// resident lines are toggled and therefore balanced. The mixture
	// reproduces both Figure 3 means — a closed bit-flip process alone
	// cannot sustain SET-dominance, allocation churn is what does.
	freshFrac float64
	// writeFrac is the fraction of accesses that are writes, per Table
	// III: WPKI/(RPKI+WPKI).
	writeFrac float64
	// expUnitMean caches exp(-(MeanSets+MeanResets)*scale) for the
	// per-unit Poisson draw — the mean is a generator constant, and
	// math.Exp per draw was a measurable slice of full-system profiles.
	expUnitMean float64
	// masks holds the last drawn write's per-unit bit masks. maskBuf
	// backs it for lines of up to 256 bytes, so that it costs a
	// generator no allocation of its own.
	masks   []uint64
	maskBuf [32]uint64
	// payload is the line buffer every write's Data borrows (see Op).
	payload []byte
}

// Program is one multi-threaded workload instance: a profile plus the
// shared memory shadow its cores mutate.
type Program struct {
	prof      Profile
	par       pcm.Params
	seed      int64
	shadow    *linestore.Store // lines as inline little-endian words
	shrdBase  pcm.LineAddr
	frontBase pcm.LineAddr
	cores     int
}

// frontierCap bounds each core's fresh-allocation region.
const frontierCap = 1 << 22

// NewProgram instantiates a workload for the given core count.
func NewProgram(prof Profile, cores int, seed int64, par pcm.Params) *Program {
	if prof.PrivateLines <= 0 {
		prof.PrivateLines = defaultPrivateLines
	}
	if prof.SharedLines <= 0 {
		prof.SharedLines = defaultSharedLines
	}
	if prof.ZipfS <= 0 {
		prof.ZipfS = defaultZipfS
	}
	if !(prof.ZipfS > 1) {
		// Rejection-inversion zipf needs s > 1; anything else would
		// yield NaN addresses mid-simulation.
		panic(fmt.Sprintf("workload: profile %q has ZipfS %v, want > 1 (or 0 for the default %v)",
			prof.Name, prof.ZipfS, defaultZipfS))
	}
	if prof.UntouchedUnits <= 0 {
		prof.UntouchedUnits = defaultUntouched
	}
	if prof.Burstiness < 0 || prof.Burstiness >= 1 {
		prof.Burstiness = 0
	}
	shrdBase := pcm.LineAddr(int64(cores) * int64(prof.PrivateLines))
	return &Program{
		prof:   prof,
		par:    par,
		seed:   seed,
		shadow: linestore.NewStore(linestore.Words(par.LineBytes)),
		// The shared region sits above all private regions, and the
		// fresh-allocation frontier above that.
		shrdBase:  shrdBase,
		frontBase: shrdBase + pcm.LineAddr(prof.SharedLines),
		cores:     cores,
	}
}

// AddressFootprint returns the number of lines in the program's static
// regions (every core's private region plus the shared region) — the
// bulk of the distinct lines a run touches; fresh allocations extend a
// little past it. Device sizing uses it as a capacity hint.
func (p *Program) AddressFootprint() int64 { return int64(p.frontBase) }

// Cores returns the number of cores the program was built for.
func (p *Program) Cores() int { return p.cores }

// FrontierWindow returns the lines [base, base+lines) core's fresh
// allocations cycle through: the frontier starts at base, advances one
// line per fresh write and wraps back to base at the end. The windows of
// successive cores are adjacent and start at AddressFootprint, so
// together with the static regions they hold every line a Generator of
// the program can name.
func (p *Program) FrontierWindow(core int) (base pcm.LineAddr, lines int64) {
	return p.frontBase + pcm.LineAddr(int64(core)*frontierCap), frontierCap
}

// Profile returns the program's (normalized) profile.
func (p *Program) Profile() Profile { return p.prof }

// Generator returns core c's operation stream.
func (p *Program) Generator(core int) *Generator {
	g := new(Generator)
	p.initGenerator(g, core)
	g.payload = make([]byte, p.par.LineBytes)
	return g
}

// initGenerator sets g up as core's generator, in place: g.masks points
// into g itself. Only the payload buffer, which Next alone uses, is
// left nil.
func (p *Program) initGenerator(g *Generator, core int) {
	if core < 0 || core >= p.cores {
		panic(fmt.Sprintf("workload: core %d of %d", core, p.cores))
	}
	apki := p.prof.RPKI + p.prof.WPKI
	total := p.prof.MeanSets + p.prof.MeanResets
	*g = Generator{
		prof:      p.prof,
		core:      core,
		prog:      p,
		privBase:  pcm.LineAddr(int64(core) * int64(p.prof.PrivateLines)),
		meanGap:   1000 / apki,
		freshFrac: (p.prof.MeanSets - p.prof.MeanResets) / total,
		writeFrac: p.prof.WPKI / apki,
	}
	if n := p.units(); n <= len(g.maskBuf) {
		g.masks = g.maskBuf[:n]
	} else {
		g.masks = make([]uint64, n)
	}
	base, lines := p.FrontierWindow(core)
	g.frontier, g.frontEnd = base, base+pcm.LineAddr(lines)
	g.rng.seed(p.seed*1000003 + int64(core)*7919 + 1)
	g.zipfPriv = newZipf(p.prof.ZipfS, 1, uint64(p.prof.PrivateLines-1))
	g.zipfShrd = newZipf(p.prof.ZipfS, 1, uint64(p.prof.SharedLines-1))
	scale := 1 / (1 - p.prof.UntouchedUnits)
	g.expUnitMean = math.Exp(-total * scale)
}

// initialLine returns the deterministic initial contents of a line:
// zeros in the frontier region (like untouched PCM), a 50/50 bit mix in
// the resident regions (so toggling stays balanced). Derived from the
// address and program seed only, so simulators can reconstruct it to
// pre-load the device.
//
// The fill is a splitmix64 stream rather than math/rand: rand.NewSource
// seeds a 607-word lagged-Fibonacci state, and paying that once per
// first-touched line dominated full-system CPU profiles (every read and
// write of a fresh address runs through here via the preload port).
// splitmix64 passes the same uniformity bar with two multiplies per
// 8 bytes and no seeding step.
func (p *Program) initialLine(addr pcm.LineAddr) []byte {
	l := make([]byte, p.par.LineBytes)
	p.initialInto(addr, l)
	return l
}

// initialInto fills dst (LineBytes long, assumed zeroed or fully
// overwritten below) with the line's initial contents.
func (p *Program) initialInto(addr pcm.LineAddr, dst []byte) {
	if addr >= p.frontBase {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	x := uint64(p.seed) ^ uint64(addr)*0x9E3779B97F4A7C15
	for i := 0; i < len(dst); i += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
		for j := 0; j < 8 && i+j < len(dst); j++ {
			dst[i+j] = byte(z >> (8 * j))
		}
	}
}

// initWords is initialLine directly in the shadow store's word layout:
// the splitmix64 output z IS the little-endian word, so the fill skips
// the byte round-trip entirely. Bits beyond LineBytes in the tail word
// are masked off to keep the words bit-identical to PackLine(initialLine).
func (p *Program) initWords(addr pcm.LineAddr, w []uint64) {
	if addr >= p.frontBase {
		return // Ensure zero-fills; frontier lines start as untouched PCM
	}
	x := uint64(p.seed) ^ uint64(addr)*0x9E3779B97F4A7C15
	for i := range w {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
		w[i] = z
	}
	if tail := p.par.LineBytes & 7; tail != 0 {
		w[len(w)-1] &= 1<<(8*uint(tail)) - 1
	}
}

// shadowWords returns the program's live shadow of a line as store
// words, creating it from the deterministic initial contents on first
// touch. The slice aliases the store and is invalidated by the next
// first-touch (rehash), so callers must not retain it across touches.
func (p *Program) shadowWords(addr pcm.LineAddr) []uint64 {
	if w := p.shadow.Get(int64(addr)); w != nil {
		return w
	}
	w := p.shadow.Ensure(int64(addr))
	p.initWords(addr, w)
	return w
}

// InitialContents returns the contents a simulator should pre-load the
// PCM device with before the program's first access to addr. For
// frontier (fresh-allocation) lines this is all zeros, matching untouched
// PCM; for resident lines it is the line's deterministic initial mix.
func (p *Program) InitialContents(addr pcm.LineAddr) []byte {
	return p.initialLine(addr)
}

// InitialContentsInto is InitialContents into a caller-owned buffer of
// LineBytes bytes, for preload paths that run once per touched line and
// want the steady state allocation-free.
func (p *Program) InitialContentsInto(addr pcm.LineAddr, dst []byte) {
	if len(dst) != p.par.LineBytes {
		panic(fmt.Sprintf("workload: InitialContentsInto buffer of %d bytes, line is %d", len(dst), p.par.LineBytes))
	}
	p.initialInto(addr, dst)
}

// Next produces the core's next operation. A write's Data is valid
// until the following Next call (see Op).
func (g *Generator) Next() Op {
	return g.prog.apply(g.draw(), g.masks, g.payload)
}

// The kinds of a drawn operation.
const (
	opRead     uint8 = iota
	opFresh          // write to a fresh line: its masks OR into the shadow
	opResident       // write to a resident line: its masks XOR into it
)

// drawn is one operation as the random stream decides it: everything
// but the payload, which depends on the shadow. A write's per-unit bit
// masks are drawn alongside, into the generator's mask buffer.
type drawn struct {
	think int64
	addr  pcm.LineAddr
	kind  uint8
}

// draw takes the core's next operation from its random stream. It
// reads no shadow, so a core's sequence of draws depends only on the
// program (profile, seed, core count and line size): it is the same
// under every scheme and every interleaving of the cores.
func (g *Generator) draw() drawn {
	d := drawn{think: g.thinkGap()}
	switch {
	case g.rng.float64() >= g.writeFrac:
		d.addr = g.pickAddr()
		return d
	case g.rng.float64() < g.freshFrac:
		d.kind, d.addr = opFresh, g.allocFresh()
	default:
		d.kind, d.addr = opResident, g.pickAddr()
	}
	g.drawMasks()
	return d
}

// drawMasks draws a write's per-unit bit masks into g.masks: per data
// unit, MeanSets+MeanResets distinct bits, or none when the unit is left
// untouched. Over a fresh (all-zero) line they are pure SET work, the
// source of the suite's SET-dominance; toggled over the 50/50 resident
// mix they split evenly between SETs and RESETs, which together with
// the fresh-write stream reproduces both Figure 3 means.
func (g *Generator) drawMasks() {
	for u := range g.masks {
		var m uint64
		if g.rng.float64() >= g.prof.UntouchedUnits {
			// Bit b of the 64-bit unit is bit b of the little-endian word.
			m = g.rng.unitMask(g.rng.poisson(g.expUnitMean))
		}
		g.masks[u] = m
	}
}

// apply applies a drawn operation to the program's shadow and returns
// it as an Op; masks holds a write's per-unit masks, and payload is the
// buffer its Data is unpacked into. Kept small enough to inline, so a
// read costs no call.
func (p *Program) apply(d drawn, masks []uint64, payload []byte) Op {
	if d.kind == opRead {
		return Op{Think: d.think, Addr: d.addr}
	}
	return p.applyWrite(d, masks, payload)
}

func (p *Program) applyWrite(d drawn, masks []uint64, payload []byte) Op {
	words := p.shadowWords(d.addr)
	for u, m := range masks {
		if d.kind == opFresh {
			words[u] |= m
		} else {
			words[u] ^= m
		}
	}
	linestore.UnpackLine(payload, words)
	return Op{Think: d.think, Write: true, Addr: d.addr, Data: payload}
}

// units is the number of 64-bit data units a write mutates.
func (p *Program) units() int { return p.par.LineBytes / 8 }

// allocFresh advances the core's allocation frontier, wrapping (and thus
// recycling very old allocations) if the region is exhausted.
func (g *Generator) allocFresh() pcm.LineAddr {
	a := g.frontier
	g.frontier++
	if g.frontier >= g.frontEnd {
		g.frontier = g.frontEnd - frontierCap
	}
	return a
}

// thinkGap samples the instruction gap before an access: geometric with
// mean 1000/(RPKI+WPKI), so access counts per kilo-instruction match the
// profile in expectation. With Burstiness set, the mean is modulated by
// the current phase (burst or idle) while the long-run mean is
// preserved.
func (g *Generator) thinkGap() int64 {
	u := g.rng.float64()
	for u == 0 {
		u = g.rng.float64()
	}
	mean := g.meanGap
	if b := g.prof.Burstiness; b > 0 {
		if g.rng.float64() < 0.05 {
			g.inBurst = !g.inBurst
		}
		if g.inBurst {
			mean *= 1 - b
		} else {
			mean *= 1 + b
		}
	}
	gap := int64(-mean * math.Log(u))
	if gap < 1 {
		gap = 1
	}
	return gap
}

// pickAddr draws the target line: shared region with probability Sharing,
// else the core's private region; Zipf-ranked within the region.
func (g *Generator) pickAddr() pcm.LineAddr {
	if g.rng.float64() < g.prof.Sharing {
		return g.prog.shrdBase + pcm.LineAddr(g.zipfShrd.uint64(&g.rng))
	}
	return g.privBase + pcm.LineAddr(g.zipfPriv.uint64(&g.rng))
}
