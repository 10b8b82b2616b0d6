package exp

import (
	"fmt"
	"sort"
	"strings"

	"tetriswrite/internal/pcm"
	"tetriswrite/internal/stats"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/units"
)

// Figure4Counts returns the per-chip, per-data-unit write-1 and write-0
// counts of the paper's worked example (Section III.B / Figure 4): eight
// data units whose SET counts are 8,7,7,6,6,6,5,3 and RESET counts
// 0,1,1,2,3,2,2,5, against a per-chip budget of 32 with the RESET current
// twice the SET current.
func Figure4Counts() (in1, in0 []int) {
	in1 = []int{8, 7, 7, 6, 6, 6, 5, 3}
	in0 = []int{0, 1, 1, 2, 3, 2, 2, 5}
	return in1, in0
}

// Figure4 renders the chip-level timing comparison of Figure 4: for each
// scheme, the phases of one cache-line write of the sample data, with the
// completion times showing Tetris Write finishing first (the paper's T1 <
// T2 < T3 < T4).
func Figure4(par pcm.Params) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Figure 4: chip-level timing diagram (Tset=%v, Treset=%v, Tread=%v, budget=%d/chip) ==\n\n",
		par.TSet, par.TReset, par.TRead, par.ChipBudget)

	type segment struct {
		name   string
		start  units.Duration
		end    units.Duration
		detail string
	}
	render := func(scheme string, segs []segment) units.Duration {
		var finish units.Duration
		for _, s := range segs {
			fmt.Fprintf(&b, "%-12s %-10s %10.1f -> %8.1f ns  %s\n",
				scheme, s.name, s.start.Nanoseconds(), s.end.Nanoseconds(), s.detail)
			if s.end > finish {
				finish = s.end
			}
		}
		fmt.Fprintf(&b, "%-12s COMPLETE   %28.1f ns\n\n", scheme, finish.Nanoseconds())
		return finish
	}

	tset, treset, tread := par.TSet, par.TReset, par.TRead
	nu := par.DataUnits()
	finishes := stats.NewTable("completion times", "scheme", "finish", "vs conventional")

	record := func(name string, f units.Duration, base units.Duration) {
		finishes.AddRow(name, f, float64(f)/float64(base))
	}

	// Conventional: one worst-case write unit per data unit.
	var segs []segment
	for u := 0; u < nu; u++ {
		segs = append(segs, segment{fmt.Sprintf("WU%d", u+1),
			units.Duration(u) * tset, units.Duration(u+1) * tset,
			fmt.Sprintf("unit %d, all cells", u+1)})
	}
	base := render("conventional", segs)
	record("conventional", base, base)

	// Flip-N-Write: read, then two units per write unit.
	segs = []segment{{"read", 0, tread, "read + flip decision"}}
	for i := 0; i < nu/2; i++ {
		start := tread + units.Duration(i)*tset
		segs = append(segs, segment{fmt.Sprintf("WU%d", i+1), start, start + tset,
			fmt.Sprintf("units %d,%d", 2*i+1, 2*i+2)})
	}
	record("fnw", render("fnw", segs), base)

	// 2-Stage-Write: 8 RESET slots then 2 SET slots.
	segs = nil
	for u := 0; u < nu; u++ {
		segs = append(segs, segment{fmt.Sprintf("st0-%d", u+1),
			units.Duration(u) * treset, units.Duration(u+1) * treset,
			fmt.Sprintf("write-0s of unit %d", u+1)})
	}
	s0 := units.Duration(nu) * treset
	for i := 0; i < 2; i++ {
		segs = append(segs, segment{fmt.Sprintf("st1-%d", i+1),
			s0 + units.Duration(i)*tset, s0 + units.Duration(i+1)*tset,
			fmt.Sprintf("write-1s of units %d-%d", 4*i+1, 4*i+4)})
	}
	record("2stage", render("2stage", segs), base)

	// Three-Stage-Write: read, 4 RESET slots, 2 SET slots.
	segs = []segment{{"read", 0, tread, "read + flip decision"}}
	for i := 0; i < nu/2; i++ {
		start := tread + units.Duration(i)*treset
		segs = append(segs, segment{fmt.Sprintf("st0-%d", i+1), start, start + treset,
			fmt.Sprintf("write-0s of units %d,%d", 2*i+1, 2*i+2)})
	}
	s0 = tread + units.Duration(nu/2)*treset
	for i := 0; i < 2; i++ {
		segs = append(segs, segment{fmt.Sprintf("st1-%d", i+1),
			s0 + units.Duration(i)*tset, s0 + units.Duration(i+1)*tset,
			fmt.Sprintf("write-1s of units %d-%d", 4*i+1, 4*i+4)})
	}
	record("3stage", render("3stage", segs), base)

	// Tetris Write: pack the sample counts, then lay the schedule out.
	in1, in0raw := Figure4Counts()
	in0 := make([]int, len(in0raw))
	for i, v := range in0raw {
		in0[i] = v * par.CurrentReset
	}
	pk := tetris.Packer{Budget: par.ChipBudget, K: par.K(), Cost1: par.CurrentSet, Cost0: par.CurrentReset}
	sched := pk.Pack(in1, in0)
	analysis := par.MemClock.Cycles(tetris.DefaultAnalysisCycles)
	wstart := tread + analysis
	pitch := tset / units.Duration(par.K())

	segs = []segment{
		{"read", 0, tread, "read + flip + 0/1 counting (Reg0/Reg1)"},
		{"analyze", tread, wstart, fmt.Sprintf("packing, %d cycles @ memory clock", tetris.DefaultAnalysisCycles)},
	}
	for j := 0; j < sched.Result; j++ {
		var members []string
		for u, allocs := range sched.Write1 {
			for _, a := range allocs {
				if a.Slot == j {
					members = append(members, fmt.Sprintf("u%d(%d)", u+1, a.Amount))
				}
			}
		}
		sort.Strings(members)
		start := wstart + units.Duration(j)*tset
		segs = append(segs, segment{fmt.Sprintf("WU%d", j+1), start, start + tset,
			"write-1: " + strings.Join(members, " ")})
	}
	// Write-0 sub-slot placements.
	subs := map[int][]string{}
	for u, allocs := range sched.Write0 {
		for _, a := range allocs {
			subs[a.Slot] = append(subs[a.Slot], fmt.Sprintf("u%d(%d)", u+1, a.Amount))
		}
	}
	var subSlots []int
	for s := range subs {
		subSlots = append(subSlots, s)
	}
	sort.Ints(subSlots)
	for _, sIdx := range subSlots {
		var start units.Duration
		if sIdx < sched.Result*sched.K {
			start = wstart + units.Duration(sIdx/sched.K)*tset + units.Duration(sIdx%sched.K)*pitch
		} else {
			start = wstart + units.Duration(sched.Result)*tset + units.Duration(sIdx-sched.Result*sched.K)*pitch
		}
		names := subs[sIdx]
		sort.Strings(names)
		segs = append(segs, segment{fmt.Sprintf("sub%d.%d", sIdx/sched.K+1, sIdx%sched.K+1),
			start, start + treset, "write-0: " + strings.Join(names, " ")})
	}
	record("tetris", render("tetris", segs), base)

	fmt.Fprintf(&b, "%s\n(tetris: result=%d write units, subresult=%d extra sub-write-units, Eq.5 metric %.3f)\n",
		finishes.String(), sched.Result, sched.SubResult, sched.WriteUnits())
	return b.String()
}
