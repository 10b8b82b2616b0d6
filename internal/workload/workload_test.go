package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"tetriswrite/internal/bitutil"
	"tetriswrite/internal/linestore"
	"tetriswrite/internal/pcm"
)

func TestProfilesMatchPaperAggregates(t *testing.T) {
	profs := Profiles()
	if len(profs) != 8 {
		t.Fatalf("got %d profiles, want the paper's 8", len(profs))
	}
	seen := map[string]bool{}
	var sets, resets float64
	for _, p := range profs {
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
		if p.RPKI <= 0 || p.WPKI <= 0 {
			t.Errorf("%s: non-positive intensity", p.Name)
		}
		sets += p.MeanSets
		resets += p.MeanResets
	}
	meanSets, meanResets := sets/8, resets/8
	total := meanSets + meanResets
	// Observation 1: ~9.6 bit-writes per 64-bit unit, ~6.7 SET + ~2.9
	// RESET. Allow 15% calibration slack.
	if total < 8.2 || total > 11 {
		t.Errorf("suite mean bit-writes %.2f, want ~9.6", total)
	}
	if meanSets < 5.7 || meanSets > 7.7 {
		t.Errorf("suite mean SETs %.2f, want ~6.7", meanSets)
	}
	if meanResets < 2.4 || meanResets > 3.4 {
		t.Errorf("suite mean RESETs %.2f, want ~2.9", meanResets)
	}
	// SET-dominance with ferret fifty-fifty.
	ferret, _ := ProfileByName("ferret")
	if ferret.MeanSets != ferret.MeanResets {
		t.Errorf("ferret should be fifty-fifty, got %v/%v", ferret.MeanSets, ferret.MeanResets)
	}
	// blackscholes lightest, vips heaviest (Figure 3's extremes).
	bs, _ := ProfileByName("blackscholes")
	vips, _ := ProfileByName("vips")
	if bs.MeanSets+bs.MeanResets > 3 {
		t.Errorf("blackscholes too heavy: %v", bs.MeanSets+bs.MeanResets)
	}
	if vips.MeanSets+vips.MeanResets < 15 {
		t.Errorf("vips too light: %v", vips.MeanSets+vips.MeanResets)
	}
}

func TestProfileByNameUnknown(t *testing.T) {
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("unknown profile did not error")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	par := pcm.DefaultParams()
	prof, _ := ProfileByName("ferret")
	mk := func() []Op {
		prog := NewProgram(prof, 4, 42, par)
		g := prog.Generator(2)
		ops := make([]Op, 200)
		for i := range ops {
			ops[i] = g.Next()
			ops[i].Data = append([]byte(nil), ops[i].Data...) // Data is reused by the next call
		}
		return ops
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i].Think != b[i].Think || a[i].Write != b[i].Write || a[i].Addr != b[i].Addr {
			t.Fatalf("op %d differs between identical runs", i)
		}
		if a[i].Write && bitutil.HammingBytes(a[i].Data, b[i].Data) != 0 {
			t.Fatalf("op %d payload differs", i)
		}
	}
}

func TestIntensityCalibration(t *testing.T) {
	par := pcm.DefaultParams()
	for _, name := range []string{"canneal", "vips", "dedup"} {
		prof, _ := ProfileByName(name)
		prog := NewProgram(prof, 4, 7, par)
		g := prog.Generator(0)
		var instr int64
		var writes, total int
		for i := 0; i < 20000; i++ {
			op := g.Next()
			instr += op.Think
			total++
			if op.Write {
				writes++
			}
		}
		apki := float64(total) / float64(instr) * 1000
		wantAPKI := prof.RPKI + prof.WPKI
		if apki < wantAPKI*0.9 || apki > wantAPKI*1.1 {
			t.Errorf("%s: APKI %.3f, want ~%.3f", name, apki, wantAPKI)
		}
		wfrac := float64(writes) / float64(total)
		wantW := prof.WPKI / wantAPKI
		if math.Abs(wfrac-wantW) > 0.03 {
			t.Errorf("%s: write fraction %.3f, want ~%.3f", name, wfrac, wantW)
		}
	}
}

// TestBitChangeCalibration: measured SET/RESET counts per 64-bit unit of
// written lines must track the profile's Figure 3 statistics.
func TestBitChangeCalibration(t *testing.T) {
	par := pcm.DefaultParams()
	for _, name := range []string{"blackscholes", "ferret", "vips"} {
		prof, _ := ProfileByName(name)
		prog := NewProgram(prof, 1, 3, par)
		g := prog.Generator(0)
		last := map[pcm.LineAddr][]byte{}
		var sets, resets, unitsSeen float64
		for i := 0; i < 200000 && unitsSeen < 60000; i++ {
			op := g.Next()
			if !op.Write {
				continue
			}
			prev, ok := last[op.Addr]
			if !ok {
				// The device is pre-loaded with InitialContents, so the
				// first write transitions from there.
				prev = prog.InitialContents(op.Addr)
			}
			for u := 0; u < len(op.Data)/8; u++ {
				for b := 0; b < 8; b++ {
					diff := prev[u*8+b] ^ op.Data[u*8+b]
					s := diff & op.Data[u*8+b]
					r := diff & prev[u*8+b]
					sets += float64(popcntByte(s))
					resets += float64(popcntByte(r))
				}
				unitsSeen++
			}
			last[op.Addr] = append([]byte(nil), op.Data...) // Data is reused by the next call
		}
		if unitsSeen < 1000 {
			t.Fatalf("%s: too few repeat-write units (%v) to calibrate", name, unitsSeen)
		}
		gotSets := sets / unitsSeen
		gotResets := resets / unitsSeen
		if gotSets < prof.MeanSets*0.75 || gotSets > prof.MeanSets*1.25 {
			t.Errorf("%s: measured %.2f SETs/unit, profile says %.2f", name, gotSets, prof.MeanSets)
		}
		if gotResets < prof.MeanResets*0.75 || gotResets > prof.MeanResets*1.25 {
			t.Errorf("%s: measured %.2f RESETs/unit, profile says %.2f", name, gotResets, prof.MeanResets)
		}
	}
}

func popcntByte(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

func TestAddressRegions(t *testing.T) {
	par := pcm.DefaultParams()
	prof, _ := ProfileByName("canneal") // high sharing: 0.35
	prog := NewProgram(prof, 4, 11, par)
	g := prog.Generator(1)
	norm := prog.Profile()
	privLo := pcm.LineAddr(int64(1) * int64(norm.PrivateLines))
	privHi := privLo + pcm.LineAddr(norm.PrivateLines)
	shrdLo := pcm.LineAddr(int64(4) * int64(norm.PrivateLines))
	shrdHi := shrdLo + pcm.LineAddr(norm.SharedLines)
	shared, private, fresh := 0, 0, 0
	for i := 0; i < 20000; i++ {
		op := g.Next()
		switch {
		case op.Addr >= privLo && op.Addr < privHi:
			private++
		case op.Addr >= shrdLo && op.Addr < shrdHi:
			shared++
		case op.Write && op.Addr >= shrdHi:
			fresh++ // frontier allocation
		default:
			t.Fatalf("address %d outside all regions (write=%v)", op.Addr, op.Write)
		}
	}
	frac := float64(shared) / float64(shared+private)
	if math.Abs(frac-norm.Sharing) > 0.03 {
		t.Errorf("shared fraction %.3f, want ~%.2f", frac, norm.Sharing)
	}
}

func TestZipfSkew(t *testing.T) {
	par := pcm.DefaultParams()
	prof, _ := ProfileByName("vips")
	prog := NewProgram(prof, 1, 5, par)
	g := prog.Generator(0)
	counts := map[pcm.LineAddr]int{}
	for i := 0; i < 20000; i++ {
		counts[g.Next().Addr]++
	}
	// Zipf: the hottest line should take a large share of accesses.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/20000 < 0.10 {
		t.Errorf("hottest line only %.1f%% of accesses; Zipf skew not in effect", float64(max)/200)
	}
	if len(counts) < 100 {
		t.Errorf("only %d distinct lines touched; tail missing", len(counts))
	}
}

func TestSharedShadowVisibleAcrossCores(t *testing.T) {
	par := pcm.DefaultParams()
	prof, _ := ProfileByName("ferret")
	prog := NewProgram(prof, 2, 9, par)
	g0 := prog.Generator(0)
	// Make core 0 write some shared lines, then check InitialContents
	// reflects them.
	var sharedAddr pcm.LineAddr = -1
	for i := 0; i < 5000 && sharedAddr < 0; i++ {
		op := g0.Next()
		if op.Write && op.Addr >= prog.shrdBase && op.Addr < prog.frontBase {
			sharedAddr = op.Addr
		}
	}
	if sharedAddr < 0 {
		t.Skip("no shared write sampled")
	}
	// Resident lines have a deterministic nonzero initial mix; frontier
	// lines start zeroed like untouched PCM.
	init := prog.InitialContents(sharedAddr)
	nonzero := false
	for _, b := range init {
		if b != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Error("resident line initial contents all zero; want 50/50 mix")
	}
	frontierInit := prog.InitialContents(prog.frontBase + 5)
	for _, b := range frontierInit {
		if b != 0 {
			t.Fatal("frontier line initial contents not zero")
		}
	}
}

func TestGeneratorPanicsOnBadCore(t *testing.T) {
	par := pcm.DefaultParams()
	prof, _ := ProfileByName("vips")
	prog := NewProgram(prof, 2, 1, par)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range core did not panic")
		}
	}()
	prog.Generator(2)
}

// TestNewProgramRejectsZipfSAtMostOne: rejection-inversion zipf is only
// defined for s > 1, so a profile outside that range must fail when the
// program is built, naming the profile and the value, not mid-run.
func TestNewProgramRejectsZipfSAtMostOne(t *testing.T) {
	par := pcm.DefaultParams()
	for _, tc := range []struct {
		zipfS float64
		bad   bool
	}{
		{0, false}, // the default, 1.2
		{-1, false},
		{1.2, false},
		{3, false},
		{0.5, true},
		{1, true},
		{math.NaN(), true},
	} {
		prof, _ := ProfileByName("dedup")
		prof.ZipfS = tc.zipfS
		msg := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			NewProgram(prof, 2, 1, par).Generator(1).Next()
			return ""
		}()
		switch {
		case !tc.bad && msg != "":
			t.Errorf("ZipfS %v: unexpected panic %q", tc.zipfS, msg)
		case tc.bad && msg == "":
			t.Errorf("ZipfS %v: accepted", tc.zipfS)
		case tc.bad && !(strings.Contains(msg, `"dedup"`) && strings.Contains(msg, fmt.Sprint(tc.zipfS))):
			t.Errorf("ZipfS %v: panic %q does not name the profile and the value", tc.zipfS, msg)
		}
	}
}

// TestBurstiness: the two-phase modulation must preserve the mean access
// rate while inflating gap variance.
func TestBurstiness(t *testing.T) {
	par := pcm.DefaultParams()
	measure := func(b float64) (apki, variance float64) {
		prof, _ := ProfileByName("vips")
		prof.Burstiness = b
		prog := NewProgram(prof, 1, 11, par)
		g := prog.Generator(0)
		var gaps []float64
		var instr int64
		const n = 30000
		for i := 0; i < n; i++ {
			op := g.Next()
			instr += op.Think
			gaps = append(gaps, float64(op.Think))
		}
		mean := float64(instr) / float64(n)
		for _, x := range gaps {
			variance += (x - mean) * (x - mean)
		}
		variance /= float64(n)
		return float64(n) / float64(instr) * 1000, variance
	}
	apki0, var0 := measure(0)
	apkiB, varB := measure(0.8)
	prof, _ := ProfileByName("vips")
	want := prof.RPKI + prof.WPKI
	for _, got := range []float64{apki0, apkiB} {
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("APKI %.3f drifted from %.3f", got, want)
		}
	}
	if varB < 1.3*var0 {
		t.Errorf("burstiness did not inflate variance: %.1f vs %.1f", varB, var0)
	}
}

// TestPayloadIsACopy: mutating a returned write payload must not corrupt
// the generator's shadow (i.e. future payloads).
func TestPayloadIsACopy(t *testing.T) {
	par := pcm.DefaultParams()
	prof, _ := ProfileByName("vips")
	prog := NewProgram(prof, 1, 2, par)
	g := prog.Generator(0)
	var first []byte
	var addr pcm.LineAddr
	for first == nil {
		op := g.Next()
		if op.Write {
			first, addr = op.Data, op.Addr
		}
	}
	for i := range first {
		first[i] = 0xFF // vandalize the returned slice
	}
	// The shadow must be unaffected: its current contents are whatever
	// the generator last wrote, not all-ones.
	shadow := prog.InitialContents(addr)
	if w := prog.shadow.Get(int64(addr)); w != nil {
		linestore.UnpackLine(shadow, w)
	}
	allOnes := true
	for _, b := range shadow {
		if b != 0xFF {
			allOnes = false
		}
	}
	if allOnes {
		t.Error("mutating a returned payload corrupted the shadow")
	}
}
