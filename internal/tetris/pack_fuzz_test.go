package tetris

import "testing"

// FuzzPack hammers the packer over arbitrary (budget, K, costs, needs)
// — including the non-cost-multiple needs that once drove the split
// regime into an unbounded loop — asserting Pack terminates and
// Validate accepts its output.
func FuzzPack(f *testing.F) {
	f.Add(32, 8, 1, 2, 0, false, []byte{8, 7, 7, 6, 6, 6, 5, 3}, []byte{0, 2, 2, 4, 6, 4, 4, 10})
	f.Add(12, 2, 5, 1, 0, false, []byte{37}, []byte{0}) // sub-cost remainder, write-1
	f.Add(12, 2, 1, 5, 0, false, []byte{0}, []byte{37}) // sub-cost remainder, write-0
	f.Add(9, 3, 4, 7, 1, true, []byte{22, 3, 11}, []byte{15, 8, 23})
	f.Add(1, 1, 1, 1, 0, false, []byte{255}, []byte{255})
	f.Fuzz(func(t *testing.T, budget, k, cost1, cost0, minResult int, arrival bool, raw1, raw0 []byte) {
		// Clamp to the packer's documented domain: positive budget/K and
		// a budget of at least one cell of either kind (smaller budgets
		// panic by contract). Bound sizes so the fuzzer explores shapes,
		// not memory limits.
		budget = 1 + abs(budget)%256
		k = 1 + abs(k)%16
		cost1 = 1 + abs(cost1)%16
		cost0 = 1 + abs(cost0)%16
		if budget < cost1 {
			budget = cost1
		}
		if budget < cost0 {
			budget = cost0
		}
		minResult = abs(minResult) % 4
		if len(raw1) > 24 {
			raw1 = raw1[:24]
		}
		n := len(raw1)
		if len(raw0) > n {
			raw0 = raw0[:n]
		}
		in1 := make([]int, n)
		in0 := make([]int, n)
		for i := 0; i < n; i++ {
			in1[i] = int(raw1[i])
			if i < len(raw0) {
				in0[i] = int(raw0[i])
			}
		}
		pk := Packer{Budget: budget, K: k, Cost1: cost1, Cost0: cost0,
			MinResult: minResult, ArrivalOrder: arrival}
		s := pk.Pack(in1, in0)
		if err := s.Validate(pk, in1, in0); err != nil {
			t.Fatalf("pk=%+v in1=%v in0=%v: %v", pk, in1, in0, err)
		}
		if s.Result < minResult {
			t.Fatalf("Result %d below MinResult %d", s.Result, minResult)
		}
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
