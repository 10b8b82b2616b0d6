package tetris

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// The split-regime loop used to spin forever when a unit's residual need
// was positive but below the per-cell cost: take = min(gap, need)/cost*cost
// rounds to 0 and the loop appends empty slots unboundedly. The fix places
// the final sub-cost remainder like one whole cell.
func TestPackSplitRegimeSubCostRemainder(t *testing.T) {
	cases := []struct {
		name string
		pk   Packer
		in1  []int
		in0  []int
	}{
		{
			name: "write1 remainder",
			// need 37 > budget 12, cost1 5: chunks of 10 leave remainder 7,
			// then 2 — the 2 is below cost and used to hang.
			pk:  Packer{Budget: 12, K: 2, Cost1: 5, Cost0: 1},
			in1: []int{37},
			in0: []int{0},
		},
		{
			name: "write0 remainder",
			pk:   Packer{Budget: 12, K: 2, Cost1: 1, Cost0: 5},
			in1:  []int{0},
			in0:  []int{37},
		},
		{
			name: "both passes, several units",
			pk:   Packer{Budget: 9, K: 3, Cost1: 4, Cost0: 7},
			in1:  []int{22, 3, 11},
			in0:  []int{15, 8, 23},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan Schedule, 1)
			go func() { done <- tc.pk.Pack(tc.in1, tc.in0) }()
			var s Schedule
			select {
			case s = <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Pack did not terminate")
			}
			if err := s.Validate(tc.pk, tc.in1, tc.in0); err != nil {
				t.Fatalf("Validate: %v", err)
			}
		})
	}
}

// PackInto against a reused Scratch must produce schedules bit-identical
// to the fresh-allocation Pack path, across many random problems sharing
// one arena.
func TestPackIntoMatchesFreshPack(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sc := new(Scratch)
	for iter := 0; iter < 2000; iter++ {
		pk := Packer{
			Budget:       4 + rng.Intn(60),
			K:            1 + rng.Intn(8),
			Cost1:        1 + rng.Intn(4),
			Cost0:        1 + rng.Intn(4),
			MinResult:    rng.Intn(3),
			ArrivalOrder: rng.Intn(4) == 0,
		}
		if pk.Budget < pk.Cost1 {
			pk.Budget = pk.Cost1
		}
		if pk.Budget < pk.Cost0 {
			pk.Budget = pk.Cost0
		}
		n := 1 + rng.Intn(10)
		in1 := make([]int, n)
		in0 := make([]int, n)
		for i := range in1 {
			in1[i] = rng.Intn(3 * pk.Budget)
			in0[i] = rng.Intn(3 * pk.Budget)
		}
		fresh := pk.Pack(in1, in0)
		sc.Reset()
		reused := pk.PackInto(sc, in1, in0)
		if !reflect.DeepEqual(fresh, reused) {
			t.Fatalf("iter %d: scratch schedule differs from fresh\npk=%+v\nin1=%v in0=%v\nfresh:  %+v\nreused: %+v",
				iter, pk, in1, in0, fresh, reused)
		}
		if err := reused.Validate(pk, in1, in0); err != nil {
			t.Fatalf("iter %d: Validate: %v", iter, err)
		}
	}
}

// Several PackInto calls between Resets (the per-domain pattern of one
// cache-line write) must all stay valid and mutually consistent.
func TestPackIntoMultipleDomainsShareScratch(t *testing.T) {
	pk := Packer{Budget: 32, K: 8, Cost1: 1, Cost0: 2}
	sc := new(Scratch)
	type domain struct{ in1, in0 []int }
	domains := []domain{
		{[]int{8, 7, 7, 6, 6, 6, 5, 3}, []int{0, 2, 2, 4, 6, 4, 4, 10}},
		{[]int{30, 1, 0, 12}, []int{2, 8, 40, 0}},
		{[]int{0, 0, 0}, []int{0, 0, 0}},
	}
	// Warm the arena, then verify post-Reset schedules match fresh ones
	// while all taken together (no interleaved Reset).
	for warm := 0; warm < 3; warm++ {
		sc.Reset()
		for _, d := range domains {
			pk.PackInto(sc, d.in1, d.in0)
		}
	}
	sc.Reset()
	got := make([]Schedule, len(domains))
	for i, d := range domains {
		got[i] = pk.PackInto(sc, d.in1, d.in0)
	}
	for i, d := range domains {
		want := pk.Pack(d.in1, d.in0)
		if !reflect.DeepEqual(want, got[i]) {
			t.Fatalf("domain %d: schedule corrupted by sharing scratch\nwant %+v\ngot  %+v", i, want, got[i])
		}
	}
}

// The analysis stage must be allocation-free in steady state.
func TestPackIntoZeroAllocs(t *testing.T) {
	pk := Packer{Budget: 32, K: 8, Cost1: 1, Cost0: 2}
	in1 := []int{8, 7, 7, 6, 6, 6, 5, 3}
	in0 := []int{0, 2, 2, 4, 6, 4, 4, 10}
	sc := new(Scratch)
	// Warm-up: grow arenas to the problem's high-water mark.
	for i := 0; i < 4; i++ {
		sc.Reset()
		pk.PackInto(sc, in1, in0)
	}
	allocs := testing.AllocsPerRun(100, func() {
		sc.Reset()
		pk.PackInto(sc, in1, in0)
	})
	if allocs != 0 {
		t.Fatalf("PackInto allocates %v objects/op in steady state, want 0", allocs)
	}
}

func BenchmarkPackInto(b *testing.B) {
	pk := Packer{Budget: 32, K: 8, Cost1: 1, Cost0: 2}
	in1 := []int{8, 7, 7, 6, 6, 6, 5, 3}
	in0 := []int{0, 2, 2, 4, 6, 4, 4, 10}
	sc := new(Scratch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc.Reset()
		pk.PackInto(sc, in1, in0)
	}
}
