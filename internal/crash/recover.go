package crash

import (
	"bytes"
	"fmt"

	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/units"
)

// TornVerdict classifies one in-flight line found after a power cut.
type TornVerdict uint8

const (
	// TornClean: every pulse landed; the line already decodes to the
	// intended data. Nothing to replay.
	TornClean TornVerdict = iota
	// TornRollforward: the line is torn but the scheme's tags still
	// match the physical flip cells; recovery finishes the write forward
	// from the surviving image, billed at a write phase.
	TornRollforward
	// TornReissue: the scheme's tags diverged from the physical flip
	// cells (tag pulses lost, or data pulses landed under tags that did
	// not); recovery re-anchors the tags and reissues the write whole,
	// billed at full service time.
	TornReissue
)

// String returns "clean", "rollforward" or "reissue".
func (v TornVerdict) String() string {
	switch v {
	case TornClean:
		return "clean"
	case TornRollforward:
		return "rollforward"
	default:
		return "reissue"
	}
}

// LineReport is the recovery record of one armed intent.
type LineReport struct {
	Seq         int64
	Addr        pcm.LineAddr
	Verdict     TornVerdict
	PulsesDone  int
	PulsesTotal int
	TagRepaired bool // scheme tags were re-anchored to the physical flip cells
}

// Report aggregates one recovery pass. RecoveryTime is the modeled bank
// time the pass costs: a TRead scan per armed intent, plus the repair
// write — the write phase (and analysis) for a rollforward, the full
// service time for a reissue.
type Report struct {
	Intents        int
	Clean          int
	Rollforwards   int
	Reissues       int
	TagRepairs     int
	RecoverySets   int64
	RecoveryResets int64
	RecoveryTime   units.Duration
	Lines          []LineReport
}

// Stats emits the crash.* recovery telemetry series.
func (r *Report) Stats(emit func(name string, value float64)) {
	emit("crash.recovered_intents", float64(r.Intents))
	emit("crash.clean_lines", float64(r.Clean))
	emit("crash.rollforwards", float64(r.Rollforwards))
	emit("crash.reissues", float64(r.Reissues))
	emit("crash.tag_repairs", float64(r.TagRepairs))
	emit("crash.recovery_sets", float64(r.RecoverySets))
	emit("crash.recovery_resets", float64(r.RecoveryResets))
	emit("crash.recovery_time", float64(r.RecoveryTime))
}

// Recover replays the intent log against the surviving image: every
// armed intent's line is read back, its torn state judged, the scheme's
// tags re-anchored to the physical flip cells, and — unless already
// clean — the line replanned from its decoded contents to the intended
// data and repaired on the device. After the pass every intent line
// decodes to its Want bytes on both the shadow and the device, or an
// error names the line that does not.
//
// One rule judges every scheme. PlanWrite advances a scheme's tags
// (schemes.FlipTagger) before any pulse lands, so a torn line whose
// in-memory tags still equal the physical flip cells is coherent and
// rolls forward; once they differ it is reissued, and it is a tag
// repair. A scheme without tags counts as 0: it never pulses a flip
// cell, so its lines' physical tags are 0 too and its torn lines always
// roll forward. The verdict is taken before the tags are restored: it
// is precisely the comparison between the two.
func Recover(img *Image) (*Report, error) {
	rep := &Report{Intents: len(img.Intents)}
	for _, in := range img.Intents {
		sch := img.Schemes[int(in.Addr)%len(img.Schemes)]
		dec := img.Shadow.Logical(in.Addr)
		phys := img.Shadow.FlipTags(in.Addr)
		var mem uint64
		tagger, tagged := sch.(schemes.FlipTagger)
		if tagged {
			mem = tagger.FlipTags(in.Addr)
		}

		verdict := TornClean
		if !bytes.Equal(dec, in.Want) {
			verdict = TornRollforward
			if mem != phys {
				verdict = TornReissue
			}
		}

		// Re-anchor the scheme's tags to the array — even a clean line
		// can carry diverged in-memory tags (e.g. a planned inversion
		// whose pulses were all lost on a unit whose data was unchanged).
		repaired := tagged && mem != phys
		if repaired {
			tagger.RestoreFlipTags(in.Addr, phys)
			rep.TagRepairs++
		}

		rep.RecoveryTime += img.Params.TRead // the scan read of this line
		if verdict != TornClean {
			plan := sch.PlanWrite(in.Addr, dec, in.Want)
			rep.RecoverySets += int64(plan.Sets)
			rep.RecoveryResets += int64(plan.Resets)
			if verdict == TornRollforward {
				rep.RecoveryTime += plan.Analysis + plan.Write
			} else {
				rep.RecoveryTime += plan.ServiceTime()
			}
			// CheckWrite is the full oracle: structural validity, power
			// budget, and decoded contents after replay.
			if err := img.Shadow.CheckWrite(in.Addr, plan, in.Want); err != nil {
				return nil, fmt.Errorf("crash: recovery replan of line %d (seq %d, %s) under %s: %w",
					in.Addr, in.Seq, verdict, sch.Name(), err)
			}
			if rec, ok := sch.(schemes.PlanRecycler); ok {
				rec.RecyclePlan(plan)
			}
			img.Dev.Preload(in.Addr, in.Want)
		}

		switch verdict {
		case TornClean:
			rep.Clean++
		case TornRollforward:
			rep.Rollforwards++
		default:
			rep.Reissues++
		}
		rep.Lines = append(rep.Lines, LineReport{
			Seq: in.Seq, Addr: in.Addr, Verdict: verdict,
			PulsesDone: in.PulsesDone, PulsesTotal: in.PulsesTotal,
			TagRepaired: repaired,
		})
	}

	// Deep validation, guard style: every intent line must now hold its
	// intended data on the device, and the device must agree with the
	// shadow's decode.
	buf := make([]byte, img.Params.LineBytes)
	for _, in := range img.Intents {
		img.Dev.PeekLine(in.Addr, buf)
		if !bytes.Equal(buf, in.Want) {
			return nil, fmt.Errorf("crash: after recovery, device line %d (seq %d) does not hold the intended data", in.Addr, in.Seq)
		}
		if got := img.Shadow.Logical(in.Addr); !bytes.Equal(got, buf) {
			return nil, fmt.Errorf("crash: after recovery, shadow decode of line %d diverges from the device", in.Addr)
		}
	}
	return rep, nil
}
