package workload

import (
	"math"
	"math/rand"
	"testing"
)

// refUnitMask is the Fisher–Yates over a fresh []int{0..63} with
// Rand.Intn that unitMask replaces.
func refUnitMask(r *rand.Rand, n int) uint64 {
	if n > 64 {
		n = 64
	}
	perm := make([]int, 64)
	for i := range perm {
		perm[i] = i
	}
	var m uint64
	for i := 0; i < n; i++ {
		j := i + r.Intn(64-i)
		perm[i], perm[j] = perm[j], perm[i]
		m |= 1 << perm[i]
	}
	return m
}

// intn64 is Rand.Intn(n) for n in [1, 64] from int31n, drawing as
// unitMask does.
func (s *source) intn64(n int) int {
	for {
		if r, ok := int31n(int32(s.int63()>>32), n); ok {
			return r
		}
	}
}

var zipfIMax = [3]uint64{0, 7, 8191}

// rngPair draws from a source and from math/rand seeded alike.
type rngPair struct {
	src   source
	ref   *rand.Rand
	zipfs [3]zipf
	refZ  [3]*rand.Zipf
}

func newRNGPair(seed int64) *rngPair {
	p := &rngPair{ref: rand.New(rand.NewSource(seed))}
	p.src.seed(seed)
	for i, imax := range zipfIMax {
		p.zipfs[i] = newZipf(1.2, 1, imax)
		p.refZ[i] = rand.NewZipf(p.ref, 1.2, 1, imax)
	}
	return p
}

// check runs one draw of kind op%4 with parameter arg on both sides and
// reports the first mismatch.
func (p *rngPair) check(t testing.TB, seed int64, i int, op, arg byte) {
	switch op % 4 {
	case 0:
		if got, want := p.src.float64(), p.ref.Float64(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d draw %d: float64 = %v, math/rand %v", seed, i, got, want)
		}
	case 1:
		n := 1 + int(arg)%64
		if got, want := p.src.intn64(n), p.ref.Intn(n); got != want {
			t.Fatalf("seed %d draw %d: intn64(%d) = %d, math/rand %d", seed, i, n, got, want)
		}
	case 2:
		k := int(arg) % len(zipfIMax)
		if got, want := p.zipfs[k].uint64(&p.src), p.refZ[k].Uint64(); got != want {
			t.Fatalf("seed %d draw %d: zipf(imax %d) = %d, math/rand %d", seed, i, zipfIMax[k], got, want)
		}
	case 3:
		n := int(arg) % 70 // past 64 the mask saturates
		if got, want := p.src.unitMask(n), refUnitMask(p.ref, n); got != want {
			t.Fatalf("seed %d draw %d: unitMask(%d) = %#x, reference %#x", seed, i, n, got, want)
		}
	}
}

// TestSourceMatchesMathRand holds the package's RNG kernel to math/rand
// draw for draw: the seeding, float64, int31n as Intn for every n in
// [1, 64], zipf over degenerate, tiny and default-sized ranges, and
// unitMask against the slice-based Fisher–Yates it replaced. The seeds
// cover math/rand's seed folding: zero (mapped to 89482311), negatives,
// and multiples of 2³¹-1 (folded to zero).
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 42, 89482311, -89482311,
		1 << 31, -(1 << 40), math.MaxInt32, 2 * math.MaxInt32, -3 * math.MaxInt32,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	for x := uint64(7); len(seeds) < 40; {
		x = x*6364136223846793005 + 1442695040888963407
		seeds = append(seeds, int64(x))
	}
	const draws = 100000
	for _, seed := range seeds {
		p := newRNGPair(seed)
		for i := 0; i < draws; i++ {
			// Cycle the four kinds; the argument cycles every n in
			// [1, 64] through intn64 and every zipf range.
			p.check(t, seed, i, byte(i), byte(i/4))
		}
	}
}

// FuzzSourceMatchesMathRand drives the kernel and math/rand with one
// seed and an arbitrary program of draws: each byte picks the kind (low
// two bits) and its argument (the rest).
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(0), []byte{255, 254, 253, 252, 0, 0, 0})
	f.Add(int64(-math.MaxInt32), []byte{3, 7, 11, 15, 19, 23, 27, 31})
	f.Add(int64(89482311), []byte("zipf and unit masks"))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		p := newRNGPair(seed)
		for i, b := range ops {
			p.check(t, seed, i, b, b>>2)
		}
	})
}
