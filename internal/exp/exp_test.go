package exp

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tetriswrite/internal/bitutil"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/workload"
)

func fastOptions() Options {
	return Options{
		Writes:      400,
		InstrBudget: 60_000,
		Seed:        3,
	}
}

func TestFigure3Shape(t *testing.T) {
	tb := Figure3(fastOptions())
	out := tb.String()
	for _, w := range []string{"blackscholes", "vips", "average"} {
		if !strings.Contains(out, w) {
			t.Errorf("Figure 3 output missing %q", w)
		}
	}
	rows := tb.Values
	// blackscholes lightest, vips heaviest; average total in the
	// neighbourhood of the paper's 9.6.
	if rows("blackscholes")[2] > rows("vips")[2] {
		t.Error("blackscholes total >= vips total; Figure 3 shape broken")
	}
	avg := rows("average")
	if avg[2] < 6 || avg[2] > 13 {
		t.Errorf("average total bit-writes %.2f, want in [6, 13] (paper: 9.6)", avg[2])
	}
	if avg[1] <= avg[0] {
		t.Errorf("average SET %.2f not dominant over RESET %.2f", avg[1], avg[0])
	}
}

// TestFigure3WideLines checks Figure 3 at 128- and 256-byte lines,
// whose 64 and 128 flip tags per line fill and overflow one 64-bit
// word, against a reference that keeps each line's tags as a []bool.
func TestFigure3WideLines(t *testing.T) {
	for _, lineBytes := range []int{128, 256} {
		opt := fastOptions()
		opt.Normalize()
		opt.Params.LineBytes = lineBytes
		rows := Figure3(opt).Values
		for _, prof := range workload.Profiles() {
			resets, sets := figure3Reference(prof, opt)
			want := []float64{shown(resets), shown(sets)}
			if got := rows(prof.Name)[:2]; !reflect.DeepEqual(got, want) {
				t.Errorf("%d-byte lines, %s: RESET, SET = %v, reference %v", lineBytes, prof.Name, got, want)
			}
		}
	}
}

// figure3Reference is one workload's Figure 3 measurement, RESET and SET
// operations per 64-bit unit, with each line's flip tags kept as one
// bool per (unit, chip) cell.
func figure3Reference(prof workload.Profile, opt Options) (resets, sets float64) {
	nc, nu, wbits := opt.Params.NumChips, opt.Params.DataUnits(), opt.Params.ChipWidthBits
	tags := map[pcm.LineAddr][]bool{}
	var units float64
	writeStream(prof, opt, func(addr pcm.LineAddr, old, new []byte) {
		if tags[addr] == nil {
			tags[addr] = make([]bool, nu*nc)
		}
		flip := tags[addr]
		for u := 0; u < nu; u++ {
			for c := 0; c < nc; c++ {
				stored := bitutil.FlipWord{Bits: bitutil.ChipSlice(old, nc, wbits/8, c, u)}
				if flip[u*nc+c] {
					stored = bitutil.FlipWord{Bits: ^stored.Bits & bitutil.WidthMask(wbits), Flip: true}
				}
				enc, tr, _, _ := bitutil.FlipTransition(stored, bitutil.ChipSlice(new, nc, wbits/8, c, u), wbits)
				flip[u*nc+c] = enc.Flip
				sets += float64(tr.NumSets())
				resets += float64(tr.NumResets())
			}
			units++
		}
	})
	return resets / units, sets / units
}

// shown is a table cell's value as the table displays it.
func shown(v float64) float64 {
	x, _ := strconv.ParseFloat(fmt.Sprintf("%.3f", v), 64)
	return x
}

func TestTable3(t *testing.T) {
	tb := Table3(fastOptions())
	out := tb.String()
	if !strings.Contains(out, "Enterprise Storage") || !strings.Contains(out, "2.760") {
		t.Errorf("Table III content missing:\n%s", out)
	}
}

func TestFigure10Shape(t *testing.T) {
	rows := Figure10(fastOptions()).Values
	avg := rows("average")
	// Columns: baseline, fnw, 2stage, 3stage, tetris.
	if avg[0] != 8 {
		t.Errorf("baseline write units %.2f, want 8", avg[0])
	}
	if avg[1] != 4 {
		t.Errorf("fnw write units %.2f, want 4", avg[1])
	}
	if avg[2] < 2.9 || avg[2] > 3.0 {
		t.Errorf("2stage write units %.2f, want ~3", avg[2])
	}
	if avg[3] < 2.4 || avg[3] > 2.5 {
		t.Errorf("3stage write units %.2f, want ~2.5", avg[3])
	}
	if avg[4] < 1.0 || avg[4] > 1.8 {
		t.Errorf("tetris write units %.2f, want in the paper's 1.06-1.46 band", avg[4])
	}
	// Per-workload: sparse blackscholes near 1, dense vips higher.
	if rows("blackscholes")[4] > rows("vips")[4] {
		t.Error("tetris: blackscholes should need fewer write units than vips")
	}
}

func TestFullSystemFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	fr, err := RunFullSystem(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	f11 := fr.Figure11().Values
	f12 := fr.Figure12().Values
	f13 := fr.Figure13().Values
	f14 := fr.Figure14().Values

	check := func(name string, rows func(string) []float64, wantDecreasing bool) {
		g := rows("geomean")
		if g[0] != 1.0 {
			t.Errorf("%s: baseline geomean %.3f, want 1", name, g[0])
		}
		for i := 1; i < len(g); i++ {
			if wantDecreasing && g[i] >= g[i-1] {
				t.Errorf("%s: geomean not improving at column %d: %v", name, i, g)
			}
			if !wantDecreasing && g[i] <= g[i-1] {
				t.Errorf("%s: geomean not increasing at column %d: %v", name, i, g)
			}
		}
	}
	check("fig11 read latency", f11, true)
	check("fig12 write latency", f12, true)
	check("fig13 IPC", f13, false)
	check("fig14 running time", f14, true)

	// Tetris IPC improvement must be the largest of the set (checked by
	// the monotonicity above) and well above 1 (the paper reports 2x
	// against its own workload mix; the geomean here includes the two
	// barely memory-bound workloads, which pull it toward 1).
	if g := f13("geomean"); g[4] < 1.35 {
		t.Errorf("tetris IPC improvement %.2f, want > 1.35", g[4])
	}
	// Energy: comparison-based schemes save energy vs baseline... the
	// baseline DCW is already comparison-based, so 2stage must *cost*
	// more energy, fnw/3stage/tetris about the same as baseline.
	en := fr.EnergyTable().Values
	g := en("geomean")
	if g[2] < 2 {
		t.Errorf("2stage energy %.2f of baseline, want >> 1 (writes every cell)", g[2])
	}
	if g[4] > 1.2 {
		t.Errorf("tetris energy %.2f of baseline, want ~1", g[4])
	}
}

func TestFigure4Diagram(t *testing.T) {
	out := Figure4(pcm.DefaultParams())
	for _, w := range []string{"conventional", "fnw", "2stage", "3stage", "tetris", "result=2", "subresult=0"} {
		if !strings.Contains(out, w) {
			t.Errorf("Figure 4 output missing %q\n%s", w, out)
		}
	}
	// The paper's completion order: tetris < 3stage < 2stage < fnw <
	// conventional. Extract COMPLETE lines.
	finish := map[string]float64{}
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "COMPLETE") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		finish[fields[0]] = ns
	}
	order := []string{"tetris", "3stage", "2stage", "fnw", "conventional"}
	for i := 1; i < len(order); i++ {
		if finish[order[i-1]] >= finish[order[i]] {
			t.Errorf("completion order broken: %s (%v) !< %s (%v)",
				order[i-1], finish[order[i-1]], order[i], finish[order[i]])
		}
	}
}

func TestLineSizeSweep(t *testing.T) {
	opt := fastOptions()
	opt.Writes = 200
	rows := LineSizeSweep(opt).Values
	// Baseline scales linearly with the line size: 8, 16, 32 units.
	for _, c := range []struct {
		line string
		want float64
	}{{"64", 8}, {"128", 16}, {"256", 32}} {
		if got := rows(c.line)[0]; got != c.want {
			t.Errorf("line %sB baseline = %v write units, want %v", c.line, got, c.want)
		}
	}
	// Tetris grows far slower than linearly: 256B costs less than 3x 64B.
	if rows("256")[4] >= 3*rows("64")[4] {
		t.Errorf("tetris at 256B = %v, 64B = %v; should scale sublinearly",
			rows("256")[4], rows("64")[4])
	}
	// And stays below three-stage at every size.
	for _, line := range []string{"64", "128", "256"} {
		if rows(line)[4] >= rows(line)[3] {
			t.Errorf("line %sB: tetris %v !< 3stage %v", line, rows(line)[4], rows(line)[3])
		}
	}
}

func TestBudgetSweep(t *testing.T) {
	opt := fastOptions()
	opt.Writes = 200
	rows := BudgetSweep(opt).Values
	// Write units grow monotonically as the budget shrinks, per scheme.
	order := []string{"32", "16", "8", "4"}
	for col := 0; col < 5; col++ {
		for i := 1; i < len(order); i++ {
			if rows(order[i])[col] < rows(order[i-1])[col]-1e-9 {
				t.Errorf("column %d: budget %s (%v) easier than budget %s (%v)",
					col, order[i], rows(order[i])[col], order[i-1], rows(order[i-1])[col])
			}
		}
	}
	// Tetris has the lowest cost at every budget.
	for _, b := range order {
		for col := 0; col < 4; col++ {
			if rows(b)[4] > rows(b)[col] {
				t.Errorf("budget %s: tetris %v worse than column %d (%v)", b, rows(b)[4], col, rows(b)[col])
			}
		}
	}
}

func TestEnduranceTable(t *testing.T) {
	opt := fastOptions()
	opt.InstrBudget = 150_000
	tb, err := EnduranceTable(opt)
	if err != nil {
		t.Fatal(err)
	}
	rows := tb.Values
	base := rows("baseline")
	baseSG := rows("baseline+sg")
	twoStage := rows("2stage")
	tet := rows("tetris")
	tetSG := rows("tetris+sg")
	if base == nil || baseSG == nil || tet == nil || tetSG == nil {
		t.Fatalf("missing rows:\n%s", tb.String())
	}
	// Columns: bit-writes, max-line, mean-line, gap-moves, lifetime.
	if base[4] != 1.0 {
		t.Errorf("baseline lifetime %v, want 1.0 by definition", base[4])
	}
	// 2-Stage writes every cell (~544 pulses/line) where the baseline
	// pulses only vips's ~130 changed bits: expect a multiple-of-3 gap.
	if twoStage[0] < 3*base[0] {
		t.Errorf("2stage bit-writes %v not >> baseline %v", twoStage[0], base[0])
	}
	// Wear leveling spreads the hotspot: max wear drops, lifetime > 1.
	if baseSG[1] >= base[1] {
		t.Errorf("start-gap max wear %v not below baseline %v", baseSG[1], base[1])
	}
	if baseSG[4] <= 1.0 {
		t.Errorf("start-gap lifetime %v, want > 1", baseSG[4])
	}
	if baseSG[3] == 0 {
		t.Error("no gap moves recorded")
	}
	// The composition is at least as good as leveling alone.
	if tetSG[4] < baseSG[4]*0.9 {
		t.Errorf("tetris+sg lifetime %v much worse than baseline+sg %v", tetSG[4], baseSG[4])
	}
	_ = tet
}

func TestCheckShapes(t *testing.T) {
	opt := fastOptions()
	results, err := CheckShapes(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 9 {
		t.Fatalf("%d checks, want 9", len(results))
	}
	for _, r := range results {
		if !r.OK {
			t.Errorf("check failed: %s (%s)", r.Name, r.Detail)
		}
	}
}

func TestTailLatencyTable(t *testing.T) {
	opt := fastOptions()
	fr, err := RunFullSystem(opt)
	if err != nil {
		t.Fatal(err)
	}
	rows := fr.TailLatency().Values
	v := rows("vips")
	if len(v) != 5 {
		t.Fatalf("vips row = %v", v)
	}
	// Tail ordering on the most memory-bound workload: tetris's P99 must
	// beat the baseline's by a wide margin.
	if v[4] >= v[0]/2 {
		t.Errorf("tetris P99 %v not well below baseline %v", v[4], v[0])
	}
}

func TestSeedSpread(t *testing.T) {
	opt := fastOptions()
	opt.InstrBudget = 40_000
	tb, err := SeedSpread(opt, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	rows := tb.Values
	// For every seed the ordering held, so min(tetris) > max(baseline)=1
	// and each scheme's min improvement exceeds the previous scheme's...
	// assert the conservative core: tetris's MINIMUM beats 3stage's MEAN
	// being ordered, and the baseline row is exactly 1.
	base := rows("baseline")
	tet := rows("tetris")
	if base[0] != 1 || base[1] != 1 || base[2] != 1 {
		t.Errorf("baseline row = %v, want all 1", base)
	}
	if tet[1] <= 1.0 {
		t.Errorf("tetris min improvement %v, want > 1 across all seeds", tet[1])
	}
	if tet[1] <= rows("fnw")[2] {
		t.Errorf("tetris min (%v) does not dominate fnw max (%v): ordering unstable", tet[1], rows("fnw")[2])
	}
}

func TestFaultToleranceTable(t *testing.T) {
	opt := fastOptions()
	opt.InstrBudget = 120_000
	tb, err := FaultToleranceTable(opt)
	if err != nil {
		t.Fatal(err)
	}
	rows := tb.Values
	base := rows("baseline")
	tet := rows("tetris")
	if base == nil || tet == nil {
		t.Fatalf("missing rows:\n%s", tb.String())
	}
	// Columns: writes, retries, transient, stuck-cells, hard-errors,
	// remapped, verify-ns/write.
	if base[3] == 0 {
		t.Errorf("baseline suffered no stuck cells; the table's endurance is tuned to provoke them:\n%s", tb)
	}
	// Stuck counts are array-level (writes are differential for every
	// scheme at the device), so schemes should land in the same ballpark.
	if tet[3] > 2*base[3] || base[3] > 2*tet[3] {
		t.Errorf("tetris stuck cells %v far from baseline %v:\n%s", tet[3], base[3], tb)
	}
	if base[1] == 0 || base[4] == 0 || base[5] == 0 {
		t.Errorf("recovery ladder inactive (retries/hard-errors/remaps):\n%s", tb)
	}
	// Verify overhead is charged per write.
	if base[6] <= 0 {
		t.Errorf("verify-ns/write not positive:\n%s", tb)
	}
	// Determinism: the same options reproduce the same table.
	tb2, err := FaultToleranceTable(opt)
	if err != nil {
		t.Fatal(err)
	}
	if tb.String() != tb2.String() {
		t.Errorf("fault-tolerance table not deterministic:\n%s\nvs\n%s", tb, tb2)
	}
}

// TestCheckShapesIgnoresSchemeSelection: the certificate is about the
// paper's five schemes, so a scheme selection for the figure tables
// must neither break it nor change a line of it.
func TestCheckShapesIgnoresSchemeSelection(t *testing.T) {
	opt := fastOptions()
	want, err := CheckShapes(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Schemes = []string{"dcw", "tetris"}
	got, err := CheckShapes(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("certificate with -schemes dcw,tetris:\n%v\nwant the paper-set certificate:\n%v", got, want)
	}
}
