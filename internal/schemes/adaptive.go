package schemes

import (
	"tetriswrite/internal/bitutil"
	"tetriswrite/internal/linestore"
	"tetriswrite/internal/pcm"
)

// Candidate names one base scheme the adaptive meta-scheme may select.
// The factory indirection keeps this package free of imports on the
// packages that implement candidates (e.g. tetris).
type Candidate struct {
	Name    string
	Factory Factory
}

// The adaptive meta-scheme's selection policy.
const (
	// adaptiveEpochWrites is the decision granularity: the policy
	// re-selects the active candidate every adaptiveEpochWrites planned
	// writes.
	adaptiveEpochWrites = 64
	// adaptiveProbeEvery forces every adaptiveProbeEvery-th epoch to run
	// the next candidate round-robin, keeping every cost estimate live
	// even for candidates the greedy policy would starve.
	adaptiveProbeEvery = 8
	// adaptiveQueueHigh is the write-queue-depth EWMA above which the
	// policy optimizes service time (write units) instead of pulse
	// energy.
	adaptiveQueueHigh = 4
	// adaptiveDensityHigh is the flip-density EWMA (changed bits per line
	// bit) above which the stream is dense enough that the power budget
	// binds and the policy optimizes write units as well.
	adaptiveDensityHigh = 0.35
	// adaptiveAlpha is the smoothing factor of every EWMA.
	adaptiveAlpha = 0.125
)

// adaptive is a meta-scheme that selects among candidate base schemes
// per epoch from live, replay-deterministic telemetry: the write-queue
// depth the controller reports through ObserveQueues, the flip density
// of the incoming write stream, and the device's static power headroom.
// The policy is two-layered: a static threshold picks the objective
// (under queue pressure or a tight power budget, minimize the write-unit
// EWMA — service time; otherwise minimize the pulse-count EWMA —
// energy), and a bandit-style cost tracker keeps per-candidate EWMAs of
// both objectives, with optimistic initialization (unknown candidates
// are tried first) and periodic round-robin probe epochs so estimates
// never go stale.
//
// Correctness across switches rests on per-line ownership: the candidate
// that last wrote a line owns it and keeps planning its writes — its
// coding state (inversion tags) matches the cells on the device. A line
// is handed to the active candidate only when both owners' flip tags for
// it are clear (FlipTagger; schemes without per-line state are always
// clear), which is exactly the condition under which the receiving
// scheme's implicit zero state still decodes the stored image.
type adaptive struct {
	par pcm.Params

	cands     []Scheme
	names     []string
	taggers   []FlipTagger // nil entries: scheme has no per-line tags
	recyclers []PlanRecycler
	needsRead bool

	owner       *linestore.Store // one word per line: owner index + 1
	active      int
	lastPlanned int
	writes      int64
	epoch       int64
	probeIdx    int

	queueEWMA   float64
	densityEWMA float64
	tightPower  bool // one worst-case data unit exceeds the chip budget

	// Per-candidate cost EWMAs; negative means never sampled.
	costWU     []float64
	costPulses []float64
	candWrites []int64

	switches  int64
	handovers int64
	sticky    int64

	// Precomputed per-candidate stat names (hot path stays alloc-free;
	// stats are only formatted here, at construction).
	statWU, statPulses, statWrites []string
}

// NewAdaptive returns a Factory for the adaptive meta-scheme over the
// given candidates (at least one). Each bank instance owns one private
// instance of every candidate.
func NewAdaptive(cands []Candidate) Factory {
	if len(cands) == 0 {
		panic("schemes: adaptive needs at least one candidate")
	}
	return func(par pcm.Params) Scheme {
		s := &adaptive{
			par:        par,
			owner:      linestore.NewStore(1),
			tightPower: par.ChipWidthBits*par.CurrentReset > par.ChipBudget,
		}
		for _, c := range cands {
			inst := c.Factory(par)
			s.cands = append(s.cands, inst)
			s.names = append(s.names, c.Name)
			t, _ := inst.(FlipTagger)
			s.taggers = append(s.taggers, t)
			rec, _ := inst.(PlanRecycler)
			s.recyclers = append(s.recyclers, rec)
			s.needsRead = s.needsRead || inst.NeedsReadBeforeWrite()
			s.costWU = append(s.costWU, -1)
			s.costPulses = append(s.costPulses, -1)
			s.candWrites = append(s.candWrites, 0)
			s.statWU = append(s.statWU, "scheme.adaptive.cost_wu."+c.Name)
			s.statPulses = append(s.statPulses, "scheme.adaptive.cost_pulses."+c.Name)
			s.statWrites = append(s.statWrites, "scheme.adaptive.writes."+c.Name)
		}
		return s
	}
}

func (s *adaptive) Name() string               { return "adaptive" }
func (s *adaptive) NeedsReadBeforeWrite() bool { return s.needsRead }

// ObserveQueues implements QueueObserver: the bank's queue depths ahead
// of each write, folded into the pressure EWMA the policy thresholds.
func (s *adaptive) ObserveQueues(reads, writes int) {
	depth := float64(reads + writes)
	s.queueEWMA = (1-adaptiveAlpha)*s.queueEWMA + adaptiveAlpha*depth
}

// RecyclePlan implements PlanRecycler, routing the buffer back to the
// candidate that planned the last write. The controller recycles each
// plan before requesting the next, so one-deep routing is exact.
func (s *adaptive) RecyclePlan(p Plan) {
	if rec := s.recyclers[s.lastPlanned]; rec != nil {
		rec.RecyclePlan(p)
	}
}

// SchemeStats implements StatProvider.
func (s *adaptive) SchemeStats(emit func(name string, value float64)) {
	emit("scheme.adaptive.switches", float64(s.switches))
	emit("scheme.adaptive.epochs", float64(s.epoch))
	emit("scheme.adaptive.handovers", float64(s.handovers))
	emit("scheme.adaptive.sticky_writes", float64(s.sticky))
	emit("scheme.adaptive.active", float64(s.active))
	for i := range s.cands {
		emit(s.statWrites[i], float64(s.candWrites[i]))
		// Unsampled costs report 0 so the series set is stable from
		// registration time on.
		emit(s.statWU[i], max(s.costWU[i], 0))
		emit(s.statPulses[i], max(s.costPulses[i], 0))
	}
	for _, c := range s.cands {
		if sp, ok := c.(StatProvider); ok {
			sp.SchemeStats(emit)
		}
	}
}

// tagsClear reports whether candidate i's flip tags for the line are all
// zero (schemes without per-line coding state always are).
func (s *adaptive) tagsClear(i int, addr pcm.LineAddr) bool {
	return s.taggers[i] == nil || s.taggers[i].FlipTags(addr) == 0
}

// ownerOf returns the index of the candidate that owns the line: the one
// that last wrote it, whose coding state matches the cells (the active
// candidate for a line never written). PlanWrite assigns ownership
// before the candidate emits pulses, so a line with a write in flight
// always has an owner.
func (s *adaptive) ownerOf(addr pcm.LineAddr) int {
	if w := s.owner.Get(int64(addr)); w != nil && w[0] != 0 {
		return int(w[0]) - 1
	}
	return s.active
}

// FlipTags implements FlipTagger with the owning candidate's tags (0
// when the owner keeps none).
func (s *adaptive) FlipTags(addr pcm.LineAddr) uint64 {
	if t := s.taggers[s.ownerOf(addr)]; t != nil {
		return t.FlipTags(addr)
	}
	return 0
}

// RestoreFlipTags implements FlipTagger by restoring the owning
// candidate's tags.
func (s *adaptive) RestoreFlipTags(addr pcm.LineAddr, tags uint64) {
	if t := s.taggers[s.ownerOf(addr)]; t != nil {
		t.RestoreFlipTags(addr, tags)
	}
}

// decide runs at each epoch boundary: probe epochs rotate through the
// candidates; greedy epochs pick the best cost under the current
// objective, trying never-sampled candidates first.
func (s *adaptive) decide() {
	s.epoch++
	prev := s.active
	if s.epoch%adaptiveProbeEvery == 0 {
		s.probeIdx = (s.probeIdx + 1) % len(s.cands)
		s.active = s.probeIdx
	} else {
		// Service time is the objective whenever it plausibly binds:
		// queue pressure, a power budget too tight to pack a worst-case
		// unit, or a write stream dense enough to fill the budget.
		cost := s.costPulses
		if s.queueEWMA >= adaptiveQueueHigh || s.tightPower || s.densityEWMA >= adaptiveDensityHigh {
			cost = s.costWU
		}
		best := -1
		for i := range s.cands {
			if cost[i] < 0 { // optimistic: unexplored wins outright
				best = i
				break
			}
			if best < 0 || cost[i] < cost[best] {
				best = i
			}
		}
		s.active = best
	}
	if s.active != prev {
		s.switches++
	}
}

func (s *adaptive) PlanWrite(addr pcm.LineAddr, old, new []byte) Plan {
	if s.writes%adaptiveEpochWrites == 0 {
		s.decide()
	}
	s.writes++

	d := float64(bitutil.HammingBytes(old, new)) / float64(s.par.LineBytes*8)
	s.densityEWMA = (1-adaptiveAlpha)*s.densityEWMA + adaptiveAlpha*d

	ow := s.owner.Ensure(int64(addr))
	idx := int(ow[0]) - 1
	switch {
	case idx < 0:
		idx = s.active
		ow[0] = uint64(idx + 1)
	case idx != s.active:
		if s.tagsClear(idx, addr) && s.tagsClear(s.active, addr) {
			idx = s.active
			ow[0] = uint64(idx + 1)
			s.handovers++
		} else {
			s.sticky++
		}
	}

	p := s.cands[idx].PlanWrite(addr, old, new)
	s.lastPlanned = idx
	s.candWrites[idx]++

	wu := p.WriteUnits()
	pulses := float64(p.Sets + p.Resets)
	s.updateCost(&s.costWU[idx], wu)
	s.updateCost(&s.costPulses[idx], pulses)
	return p
}

func (s *adaptive) updateCost(c *float64, v float64) {
	if *c < 0 {
		*c = v
		return
	}
	*c = (1-adaptiveAlpha)**c + adaptiveAlpha*v
}
