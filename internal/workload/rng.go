package workload

import (
	"math"
	"math/bits"
	"math/rand"
	"sync"
)

// The generator's random stream is math/rand's Go 1 stream: the additive
// lagged-Fibonacci source (Mitchell–Reeds, lags 607 and 273) behind
// rand.NewSource, read through Rand.Float64, Rand.Intn and rand.Zipf.
// Every write's payload is built from it, so it cannot change without
// changing every result the simulator reports. source is a concrete
// copy of that machinery: the same values in the same order, without
// the interface dispatch per draw, the division per Intn or the pointer
// chase from Zipf to Rand, and with a seeding step free of divisions.
// TestSourceMatchesMathRand holds it to math/rand draw for draw.

const (
	rngLen = 607
	rngTap = 273
)

// source is math/rand's rngSource reorganised into blocks. rngSource
// keeps a 607-word ring and per draw moves two cursors and adds the
// word 273 draws old into the one 607 draws old, so its outputs obey
// x[k] = x[k-607] + x[k-273] (mod 2⁶⁴). source instead keeps a block of
// 607 consecutive outputs in order, hands them out one by one, and
// computes the next block in one pass when they run out.
type source struct {
	pos uint // next output in buf; rngLen means the block is spent
	buf [rngLen]int64
}

// seed sets s to continue the stream of rand.NewSource(seed). It runs
// math/rand's seeding procedure: 607 words from a Lehmer generator
// (x ← 48271·x mod 2³¹-1, started from the folded seed), each XORed with
// the matching word of math/rand's rngCooked table, fill the ring. The
// ring, read in block order, is the block before the first output.
func (s *source) seed(seed int64) {
	w := lehmerWords(seed)
	c := cooked()
	for j := range s.buf {
		i := ringSlot(j)
		s.buf[j] = w[i] ^ c[i]
	}
	s.refill()
}

// lehmerWords returns the seed-dependent half of math/rand's seeded
// ring: rngSource.Seed's words before the XOR with rngCooked.
func lehmerWords(seed int64) (w [rngLen]int64) {
	const m = 1<<31 - 1
	seed %= m
	if seed < 0 {
		seed += m
	}
	if seed == 0 {
		seed = 89482311
	}
	// rngSource's seedrand takes 48271·x mod m by Schrage's method; for
	// x in [1, m) the product fits 64 bits, and folding its high bits
	// once leaves at most one m to subtract.
	x := uint64(seed)
	next := func() int64 {
		x *= 48271
		x = x&m + x>>31
		if x >= m {
			x -= m
		}
		return int64(x)
	}
	for i := 0; i < 20; i++ {
		next()
	}
	for i := range w {
		w[i] = next()<<40 ^ next()<<20 ^ next()
	}
	return w
}

// cooked recovers math/rand's rngCooked table, once per process, from
// the stream of one rand.NewSource rather than copying its 607 words:
// the first 607 outputs are a block, unrefill steps back to the seeded
// ring, and XOR with that seed's Lehmer words leaves the table.
var cooked = sync.OnceValue(func() *[rngLen]int64 {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var s source
	for i := range s.buf {
		s.buf[i] = int64(src.Uint64())
	}
	s.unrefill()
	w := lehmerWords(seed)
	var c [rngLen]int64
	for j, x := range s.buf {
		i := ringSlot(j)
		c[i] = x ^ w[i]
	}
	return &c
})

// ringSlot maps a block position j to the slot of rngSource's ring that
// holds output j-607, the term the next refill adds into position j.
// rngSource draws first into slot 333 with tap 606, then into 332 with
// tap 605, and so on down, wrapping at 0.
func ringSlot(j int) int { return (rngLen - rngTap - 1 - j + rngLen) % rngLen }

// refill replaces the spent block x[n-607..n-1] by x[n..n+606] in
// place. For the first 273 new terms the lag-273 partner is still in the
// old block (334 slots on); for the rest it is a term just computed. Kept
// out of line so int63 stays small enough to inline.
//
//go:noinline
func (s *source) refill() {
	b := &s.buf
	for i := 0; i < rngTap; i++ {
		b[i] += b[i+rngLen-rngTap]
	}
	for i := rngTap; i < rngLen; i++ {
		b[i] += b[i-rngTap]
	}
	s.pos = 0
}

// unrefill undoes refill: it turns a block back into the one before it.
func (s *source) unrefill() {
	b := &s.buf
	for i := rngLen - 1; i >= rngTap; i-- {
		b[i] -= b[i-rngTap]
	}
	for i := 0; i < rngTap; i++ {
		b[i] -= b[i+rngLen-rngTap]
	}
}

// int63 is rngSource.Int63: the next output with its sign bit cleared.
// It is written to stay within the inlining budget, so the loops below
// draw without a call per value.
func (s *source) int63() int64 {
	if s.pos == rngLen {
		s.refill()
	}
	s.pos++
	return s.buf[s.pos-1] & math.MaxInt64
}

// float64 is Rand.Float64: Int63 / 2⁶³, resampling the values that
// round up to 1. The division is by a power of two, so multiplying by
// 2⁻⁶³ gives the identical float.
func (s *source) float64() float64 {
	for {
		if f := float64(s.int63()) * 0x1p-63; f != 1 {
			return f
		}
	}
}

// poisson samples a Poisson variate by Knuth's method from the
// threshold l = exp(-mean), multiplying float64 draws until the product
// falls to l (means here are < 30, so the product loop is fine). l >= 1
// encodes mean <= 0 and returns 0 without drawing.
func (s *source) poisson(l float64) int {
	if l >= 1 {
		return 0
	}
	k := 0
	p := 1.0
	for {
		f := float64(s.int63()) * 0x1p-63
		if f == 1 {
			continue // float64's resample
		}
		p *= f
		if p <= l {
			return k
		}
		k++
		if k > 512 { // numerical safety net; unreachable for sane means
			return k
		}
	}
}

// int31Max is Int31n's rejection threshold for each n in [1, 64],
// indexed by n mod 64: the largest v whose v % n is unbiased,
// 2³¹-1 - 2³¹ mod n.
var int31Max = func() (t [64]int32) {
	for n := 1; n <= 64; n++ {
		t[n&63] = int32(1<<31 - 1 - (1<<31)%uint32(n))
	}
	return t
}()

// fastmodM is ⌈2⁶⁴/n⌉ for each n in [2, 64], indexed by n mod 64. With
// it, v mod n is the high word of (M·v mod 2⁶⁴)·n, exact for every v
// and n below 2³² (Lemire, Kaser and Kurz, "Faster remainder by direct
// computation", 2019).
var fastmodM = func() (t [64]uint64) {
	for n := 2; n <= 64; n++ {
		t[n&63] = ^uint64(0)/uint64(n) + 1
	}
	return t
}()

// int31n is one round of Rand.Int31n(n) for n in [1, 64] on the 31-bit
// draw v: a power of two masks v, any other n takes v mod n by fastmod
// unless v falls in the biased tail, which Int31n rejects (ok false)
// and draws again.
func int31n(v int32, n int) (r int, ok bool) {
	if n&(n-1) == 0 {
		return int(v & int32(n-1)), true
	}
	if v > int31Max[n&63] {
		return 0, false
	}
	hi, _ := bits.Mul64(fastmodM[n&63]*uint64(v), uint64(n))
	return int(hi), true
}

// identity64 is the starting permutation of unitMask's Fisher–Yates.
var identity64 = func() (p [64]uint8) {
	for i := range p {
		p[i] = uint8(i)
	}
	return p
}()

// unitMask returns a 64-bit mask of n distinct bit positions (all 64
// when n exceeds 64) chosen by partial Fisher–Yates, so a unit's
// mutation changes exactly n cells; sampling with replacement would
// undershoot through collisions. It consumes the stream exactly as
// shuffling a fresh []int{0..63} with Rand.Intn did. Slot i is final
// once chosen and never read again, so only slot j takes the swap.
func (s *source) unitMask(n int) uint64 {
	perm := identity64
	var m uint64
	for i := 0; i < n && i < 64; {
		r, ok := int31n(int32(s.int63()>>32), 64-i)
		if !ok {
			continue
		}
		j := (i + r) & 63 // i+r < 64 already; the mask drops bounds checks
		m |= 1 << perm[j]
		perm[j] = perm[i&63]
		i++
	}
	return m
}

// zipf is rand.Zipf drawing from a source: values k in [0, imax] with
// P(k) proportional to (v+k)^-q, by rejection-inversion (Hörmann and
// Derflinger). The arithmetic is rand.Zipf's, operation for operation.
type zipf struct {
	imax         float64
	v            float64
	q            float64
	s            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64
}

// newZipf is rand.NewZipf. It requires q > 1 and v >= 1, which
// NewProgram enforces for the profile's ZipfS.
func newZipf(q, v float64, imax uint64) zipf {
	z := zipf{imax: float64(imax), v: v, q: q}
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
	return z
}

func (z *zipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *zipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// uint64 is Zipf.Uint64 with src as the Zipf's Rand.
func (z *zipf) uint64(src *source) uint64 {
	k := 0.0
	for {
		r := src.float64() // r on [0,1]
		ur := z.hxm + r*z.hx0minusHxm
		x := z.hinv(ur)
		k = math.Floor(x + 0.5)
		if k-x <= z.s {
			break
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			break
		}
	}
	return uint64(k)
}
