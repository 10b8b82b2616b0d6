// Package tetris implements the paper's contribution: the Tetris Write
// scheme. Instead of shaping every write by the worst case, Tetris Write
// reads the stored data, counts how many cells of each data unit actually
// need a SET (write-1) and a RESET (write-0), and then *bin-packs* the
// work under the instantaneous power budget:
//
//  1. the long, low-current write-1s are packed first-fit-decreasing into
//     as few full write units (Tset-long slots) as the budget allows;
//  2. the short, high-current write-0s are then dropped into the
//     sub-write-units (Treset-long slices of each write unit) using
//     whatever current the co-scheduled write-1s left over — like fitting
//     Tetris pieces into the gaps — with extra sub-write-units appended
//     only when no gap fits.
//
// Service time follows Equation 5: (result + subresult/K) x Tset, where
// result is the number of write units and subresult the number of extra
// sub-write-units.
package tetris

import (
	"fmt"
	"slices"
)

// Alloc gives part of one data unit's current need a home in one slot.
// Amount is in SET-current units; Slot is a write-unit index for write-1
// allocations and a global sub-slot index for write-0 allocations
// (sub-slot s = writeUnit*K + k for k in [0, K), overflow slots numbered
// from result*K upward).
type Alloc struct {
	Slot   int
	Amount int
}

// Schedule is the output of the analysis stage for one power domain (one
// chip, or the whole bank under a Global Charge Pump).
type Schedule struct {
	Result    int // write units consumed by write-1s (the paper's result)
	SubResult int // extra sub-write-units appended for write-0s
	K         int // sub-write-units per write unit (time asymmetry)

	// Write1[u] and Write0[u] list where data unit u's SET and RESET
	// current was placed. Units with nothing to do have empty lists.
	Write1 [][]Alloc
	Write0 [][]Alloc
}

// Packer holds the analysis-stage configuration.
type Packer struct {
	Budget int // instantaneous budget of the domain, SET-current units
	K      int // sub-write-units per write unit (time asymmetry)
	// Cost1 and Cost0 are the per-cell currents of SET and RESET pulses.
	// Zero means 1. Split allocations are kept to whole cells by rounding
	// to multiples of the cost.
	Cost1, Cost0 int
	// MinResult opens at least this many write units before packing, so
	// zero-budget riders that need a Tset-long span (flip-cell SETs) get
	// one and the write-0 pass can use its sub-slots.
	MinResult int
	// ArrivalOrder disables the decreasing sort (ablation): units are
	// packed first-fit in arrival order instead of first-fit-decreasing.
	ArrivalOrder bool
}

func (pk Packer) cost1() int {
	if pk.Cost1 <= 0 {
		return 1
	}
	return pk.Cost1
}

func (pk Packer) cost0() int {
	if pk.Cost0 <= 0 {
		return 1
	}
	return pk.Cost0
}

// Scratch is a reusable packing arena. Repeated PackInto calls against
// the same Scratch reuse its buffers instead of allocating, which makes
// the analysis stage allocation-free in steady state — the property the
// full-system sweeps depend on.
//
// Ownership rules: every Schedule returned by PackInto points into the
// Scratch's arenas and stays valid until the next Reset. Multiple
// PackInto calls may share one Scratch between Resets (the per-domain
// packs of one cache-line write do exactly that); Reset reclaims all of
// them at once. A Scratch is single-owner: it must not be shared between
// goroutines or between schemes.
type Scratch struct {
	order []int // packing order of the current pass
	wu1   []int // per-write-unit committed write-1 current
	sub   []int // per-global-sub-slot committed current

	// allocs is the arena the per-unit Alloc lists are carved from, and
	// lists the arena for the Write1/Write0 slice headers. Both only ever
	// grow; Reset rewinds their cursors, so steady-state packing reuses
	// the high-water-mark capacity without touching the allocator.
	allocs []Alloc
	lists  [][]Alloc
}

// Reset rewinds the arenas. Every Schedule previously returned from this
// Scratch becomes invalid.
func (sc *Scratch) Reset() {
	sc.allocs = sc.allocs[:0]
	sc.lists = sc.lists[:0]
}

// Pack computes the Tetris schedule for one domain using fresh
// allocations: the returned Schedule owns its memory. in1[u] and in0[u]
// are data unit u's write-1 and write-0 current needs (already scaled by
// the per-cell currents). Both slices must have the same length.
//
// Units whose need exceeds the whole budget are split across slots — the
// generalization required by tiny mobile budgets; under the paper's
// configuration every unit fits and placements stay atomic.
func (pk Packer) Pack(in1, in0 []int) Schedule {
	return pk.PackInto(new(Scratch), in1, in0)
}

// PackInto is Pack against a caller-owned Scratch: identical schedules,
// no steady-state allocation. The result aliases the Scratch's arenas and
// is valid until its next Reset.
func (pk Packer) PackInto(sc *Scratch, in1, in0 []int) Schedule {
	if len(in1) != len(in0) {
		panic("tetris: Pack with mismatched current slices")
	}
	if pk.Budget <= 0 || pk.K <= 0 {
		panic("tetris: Pack with non-positive budget or K")
	}
	if pk.Budget < pk.cost1() || pk.Budget < pk.cost0() {
		// A budget below a single cell's current can never make
		// progress; pcm.Params.Validate rules this out for real
		// configurations, so hitting it means a caller bug.
		panic(fmt.Sprintf("tetris: budget %d below per-cell current (%d/%d)",
			pk.Budget, pk.cost1(), pk.cost0()))
	}
	n := len(in1)
	s := Schedule{K: pk.K}
	s.Write1, s.Write0 = sc.carveLists(n)

	// wu1[j]: current committed to write unit j by write-1s. A write-1
	// pulse spans the whole write unit, so it loads every one of the
	// unit's K sub-slots for its full duration.
	wu1 := resizeZeroed(sc.wu1, pk.MinResult)

	for _, u := range pk.order(sc, in1, pk.Budget) {
		need := in1[u]
		mark := len(sc.allocs)
		// Atomic first-fit into an existing write unit.
		placed := false
		if need <= pk.Budget {
			for j := range wu1 {
				if wu1[j]+need <= pk.Budget {
					wu1[j] += need
					sc.allocs = append(sc.allocs, Alloc{Slot: j, Amount: need})
					placed = true
					break
				}
			}
			if !placed {
				wu1 = append(wu1, need)
				sc.allocs = append(sc.allocs, Alloc{Slot: len(wu1) - 1, Amount: need})
				placed = true
			}
		}
		if !placed {
			// Split regime: spread across write units, filling gaps
			// first and appending as needed, in whole cells.
			cost := pk.cost1()
			for j := 0; need > 0; j++ {
				if j == len(wu1) {
					wu1 = append(wu1, 0)
				}
				gap := pk.Budget - wu1[j]
				take := min(gap, need) / cost * cost
				if take <= 0 {
					// The final sub-cost remainder (only reachable when a
					// need is not a whole number of cells) would round to
					// zero forever; place it like one whole cell instead,
					// in the first slot with room for a cell.
					if need < cost && gap >= cost {
						take = need
					} else {
						continue
					}
				}
				wu1[j] += take
				sc.allocs = append(sc.allocs, Alloc{Slot: j, Amount: take})
				need -= take
			}
		}
		s.Write1[u] = sc.take(mark)
	}
	s.Result = len(wu1)
	sc.wu1 = wu1

	// sub[i]: current committed to global sub-slot i. Sub-slots within
	// write unit j inherit the write-1 load wu1[j]; overflow sub-slots
	// past result*K start empty. Overflow slots are materialized lazily.
	sub := resizeZeroed(sc.sub, s.Result*pk.K)
	for j, used := range wu1 {
		for k := 0; k < pk.K; k++ {
			sub[j*pk.K+k] = used
		}
	}

	room := pk.Budget
	if len(sub) > 0 {
		room -= sub[0]
	}
	for _, u := range pk.order(sc, in0, room) {
		need := in0[u]
		mark := len(sc.allocs)
		placed := false
		if need <= pk.Budget {
			for i := range sub {
				if sub[i]+need <= pk.Budget {
					sub[i] += need
					sc.allocs = append(sc.allocs, Alloc{Slot: i, Amount: need})
					placed = true
					break
				}
			}
			if !placed {
				sub = append(sub, need)
				sc.allocs = append(sc.allocs, Alloc{Slot: len(sub) - 1, Amount: need})
				placed = true
			}
		}
		if !placed {
			cost := pk.cost0()
			for i := 0; need > 0; i++ {
				if i == len(sub) {
					sub = append(sub, 0)
				}
				gap := pk.Budget - sub[i]
				take := min(gap, need) / cost * cost
				if take <= 0 {
					// Mirror of the write-1 split regime: a sub-cost
					// remainder is placed as one whole cell.
					if need < cost && gap >= cost {
						take = need
					} else {
						continue
					}
				}
				sub[i] += take
				sc.allocs = append(sc.allocs, Alloc{Slot: i, Amount: take})
				need -= take
			}
		}
		s.Write0[u] = sc.take(mark)
	}
	s.SubResult = len(sub) - s.Result*pk.K
	sc.sub = sub

	return s
}

// carveLists extends the list arena by 2n nil entries and returns them as
// the Write1 and Write0 header arrays. Taking the subslices after the
// append keeps them valid even when the arena regrows mid-carve.
func (sc *Scratch) carveLists(n int) (w1, w0 [][]Alloc) {
	base := len(sc.lists)
	sc.lists = slices.Grow(sc.lists, 2*n)[:base+2*n]
	clear(sc.lists[base:])
	return sc.lists[base : base+n : base+n], sc.lists[base+n : base+2*n : base+2*n]
}

// take returns the allocs appended since mark as an owned-capacity slice,
// or nil when none were (so arena-built schedules are indistinguishable
// from fresh ones, where untouched units keep nil lists).
func (sc *Scratch) take(mark int) []Alloc {
	if len(sc.allocs) == mark {
		return nil
	}
	return sc.allocs[mark:len(sc.allocs):len(sc.allocs)]
}

// resizeZeroed returns buf resized to n with every element zeroed,
// reusing its capacity.
func resizeZeroed(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n, max(n, 2*cap(buf)))
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// order returns the units with a nonzero need in packing order:
// decreasing need (first-fit-decreasing) with index as tie-break, or
// plain arrival order for the ablation. Units with no need place
// nothing, so leaving them out changes no schedule; nor does the order
// when all needs together fit room, the free current of the pass's
// first slot, because first-fit then puts every unit there. The
// returned slice is the Scratch's order buffer, valid until the next
// order call.
func (pk Packer) order(sc *Scratch, need []int, room int) []int {
	if cap(sc.order) < len(need) {
		sc.order = make([]int, len(need))
	}
	idx := sc.order[:len(need)]
	n, total := 0, 0
	for i, v := range need {
		idx[n] = i
		inc := 0
		if v != 0 {
			inc = 1
		}
		n += inc
		total += v
	}
	idx = idx[:n]
	if pk.ArrivalOrder || total <= room {
		return idx
	}
	// Insertion sort on keys that order decreasing need, then arrival
	// order, in one compare: stable, allocation-free, and fast at the
	// data-unit counts of real lines (4-16). Matches sort.SliceStable's
	// ordering exactly.
	const low = 1<<32 - 1
	for i, u := range idx {
		key := need[u]<<32 | (low - u)
		j := i
		for ; j > 0 && idx[j-1] < key; j-- {
			idx[j] = idx[j-1]
		}
		idx[j] = key
	}
	for i, key := range idx {
		idx[i] = low - key&low
	}
	return idx
}

// Validate checks a schedule's internal consistency against the inputs it
// was built from: every unit's need fully allocated, no slot over budget,
// write-0 slots within bounds.
//
// Its power accounting matches the scheme-level oracle
// (schemes.Pulse.DataBits feeding power.Budget.Check): a write-1
// allocation loads all K sub-slots of its write unit for the pulse's full
// Tset duration, while flip cells never appear here at all — in1/in0
// count data cells only, because the paper's budget arithmetic (the
// Figure 4 example charges 8+7+7+6+3 data bits against a budget of 32)
// gives the flip-bit drivers their own column outside the data budget.
// TestValidateMatchesBudgetOracle pins the two definitions together.
func (s Schedule) Validate(pk Packer, in1, in0 []int) error {
	maxSub := s.Result*s.K + s.SubResult
	load := make([]int, maxSub) // global sub-slot -> current
	for u, allocs := range s.Write1 {
		total := 0
		for _, a := range allocs {
			if a.Slot < 0 || a.Slot >= s.Result {
				return fmt.Errorf("unit %d: write-1 slot %d outside [0, %d)", u, a.Slot, s.Result)
			}
			for k := 0; k < s.K; k++ {
				load[a.Slot*s.K+k] += a.Amount
			}
			total += a.Amount
		}
		if total != in1[u] {
			return fmt.Errorf("unit %d: write-1 allocated %d, need %d", u, total, in1[u])
		}
	}
	for u, allocs := range s.Write0 {
		total := 0
		for _, a := range allocs {
			if a.Slot < 0 || a.Slot >= maxSub {
				return fmt.Errorf("unit %d: write-0 sub-slot %d outside [0, %d)", u, a.Slot, maxSub)
			}
			load[a.Slot] += a.Amount
			total += a.Amount
		}
		if total != in0[u] {
			return fmt.Errorf("unit %d: write-0 allocated %d, need %d", u, total, in0[u])
		}
	}
	for slot, cur := range load {
		if cur > pk.Budget {
			return fmt.Errorf("sub-slot %d: load %d exceeds budget %d", slot, cur, pk.Budget)
		}
	}
	return nil
}

// WriteUnits returns the paper's Figure 10 metric for this schedule:
// result + subresult/K.
func (s Schedule) WriteUnits() float64 {
	return float64(s.Result) + float64(s.SubResult)/float64(s.K)
}
