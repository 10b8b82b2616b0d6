package tetris

// Property-based tests (testing/quick) on the analysis-stage packer and
// the read stage: the randomized generators in tetris_test.go cover the
// common shapes; these let quick derive adversarial inputs from the type
// structure itself.

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"tetriswrite/internal/bitutil"
	"tetriswrite/internal/units"
)

// packInput is a quick-generatable packing problem.
type packInput struct {
	Needs  []uint16 // per data unit: low byte sets, high byte resets
	Budget uint8
	K      uint8
}

// Generate implements quick.Generator with domain-appropriate ranges.
func (packInput) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(16)
	needs := make([]uint16, n)
	for i := range needs {
		sets := r.Intn(65)   // up to 64 set cells per bank-level unit
		resets := r.Intn(65) // up to 64 reset cells
		needs[i] = uint16(sets) | uint16(resets)<<8
	}
	return reflect.ValueOf(packInput{
		Needs:  needs,
		Budget: uint8(2 + r.Intn(200)),
		K:      uint8(1 + r.Intn(16)),
	})
}

// TestQuickPackerInvariants: for arbitrary inputs the schedule validates
// (full allocation, no slot over budget, bounds respected) and the write
// units metric is consistent with the schedule dimensions.
func TestQuickPackerInvariants(t *testing.T) {
	f := func(in packInput) bool {
		pk := Packer{Budget: int(in.Budget), K: int(in.K), Cost1: 1, Cost0: 2}
		in1 := make([]int, len(in.Needs))
		in0 := make([]int, len(in.Needs))
		for i, n := range in.Needs {
			in1[i] = int(n & 0xFF)
			in0[i] = int(n>>8) * 2
		}
		s := pk.Pack(in1, in0)
		if err := s.Validate(pk, in1, in0); err != nil {
			t.Logf("invalid schedule: %v (budget=%d k=%d)", err, in.Budget, in.K)
			return false
		}
		wantWU := float64(s.Result) + float64(s.SubResult)/float64(s.K)
		return s.WriteUnits() == wantWU
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickPackerMostlyMonotoneBudget: a larger budget should rarely need
// more write units for the same work. Strict per-instance monotonicity
// does NOT hold — the paper's analysis stage places each unit's write-0s
// *atomically*, and first-fit bin packing has classic anomalies where a
// larger bin spills a unit to an overflow slot that a smaller bin happened
// to split for free. The quick fuzzer found such an instance (one unit,
// in0 slightly above the doubled residual capacity), so this property
// asserts the bounded form: any regression stays within one write unit,
// and on aggregate the larger budget wins.
func TestQuickPackerMostlyMonotoneBudget(t *testing.T) {
	var sumSmall, sumBig float64
	f := func(in packInput) bool {
		in1 := make([]int, len(in.Needs))
		in0 := make([]int, len(in.Needs))
		for i, n := range in.Needs {
			in1[i] = int(n & 0xFF)
			in0[i] = int(n>>8) * 2
		}
		small := Packer{Budget: int(in.Budget), K: 8, Cost1: 1, Cost0: 2}
		big := Packer{Budget: int(in.Budget) * 2, K: 8, Cost1: 1, Cost0: 2}
		ws := small.Pack(in1, in0).WriteUnits()
		wb := big.Pack(in1, in0).WriteUnits()
		sumSmall += ws
		sumBig += wb
		return wb <= ws+1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if sumBig > sumSmall {
		t.Errorf("doubled budget is worse on aggregate: %.2f vs %.2f", sumBig, sumSmall)
	}
}

// TestQuickReadStageRoundTrip: for any stored word and target, the read
// stage produces an encoding that decodes to the target and a transition
// that reaches the encoding from the stored bits.
func TestQuickReadStageRoundTrip(t *testing.T) {
	f := func(storedBits, next uint16, storedFlip, disable bool) bool {
		stored := bitutil.FlipWord{Bits: storedBits, Flip: storedFlip}
		if storedFlip {
			stored.Bits = ^storedBits
		}
		uc := ReadStage(stored, next, 16, disable)
		return uc.Enc.Logical() == next && uc.Tr.Apply(stored.Bits) == uc.Enc.Bits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickScheduleSpanMatchesFSM: the FSM replay of any packed schedule
// finishes exactly at the Equation 5 span.
func TestQuickScheduleSpanMatchesFSM(t *testing.T) {
	tset := 430 * units.Nanosecond
	f := func(in packInput) bool {
		k := int(in.K)
		pk := Packer{Budget: int(in.Budget), K: k, Cost1: 1, Cost0: 2}
		in1 := make([]int, len(in.Needs))
		in0 := make([]int, len(in.Needs))
		for i, n := range in.Needs {
			in1[i] = int(n & 0xFF)
			in0[i] = int(n>>8) * 2
		}
		s := pk.Pack(in1, in0)
		pitch := tset / units.Duration(k)
		ex := ExecuteFSMs(s, tset, pitch)
		if ex.CheckAgainst(s, tset, pitch) != nil {
			return false
		}
		want := units.Duration(s.Result)*tset + units.Duration(s.SubResult)*pitch
		return ex.Finish == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
