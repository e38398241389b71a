// Package rng provides a deterministic, splittable pseudo-random number
// generator and the distribution samplers used throughout the simulator.
//
// Every stochastic component in the repository draws from an explicit
// *Stream so that experiments are exactly reproducible from a seed, and
// so that independent subsystems (e.g. the disturbance model and the
// retention model of the same DRAM device) consume independent streams
// that do not perturb each other when one of them is reconfigured.
//
// The core generator is xoshiro256**, seeded through SplitMix64, the
// combination recommended by the xoshiro authors. It is not
// cryptographically secure; it is a simulation PRNG.
package rng

import "math"

// Stream is a deterministic pseudo-random number stream. The zero value
// is not usable; construct streams with New or Stream.Split.
type Stream struct {
	s0, s1, s2, s3 uint64
	// spare Gaussian for the polar method.
	haveSpare bool
	spare     float64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding, as recommended by the xoshiro authors.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Stream seeded from the given 64-bit seed. Distinct seeds
// yield statistically independent streams.
func New(seed uint64) *Stream {
	st := seed
	s := &Stream{}
	s.s0 = splitMix64(&st)
	s.s1 = splitMix64(&st)
	s.s2 = splitMix64(&st)
	s.s3 = splitMix64(&st)
	// xoshiro must not start from the all-zero state.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 1
	}
	return s
}

// Split derives a new independent stream from s. The parent stream is
// advanced, so repeated Splits yield distinct children. Children with
// the same label drawn in the same order are reproducible.
func (s *Stream) Split() *Stream {
	return New(s.Uint64() ^ 0xd2b74407b1ce6e93)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Stream) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Int63 returns a uniform non-negative int64.
func (s *Stream) Int63() int64 { return int64(s.Uint64() >> 1) }

// Uint64n returns a uniform integer in [0, n) using Lemire's
// multiply-shift rejection method. It panics if n == 0.
func (s *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return s.Uint64() & (n - 1)
	}
	// Rejection sampling to remove modulo bias.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := s.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// BoolCut returns the integer cut of Bool(p) for 0 < p < 1, where
// Bool(p) draws exactly one Uint64 u and returns u>>11 < BoolCut(p):
// Float64 is u>>11 scaled by 2^-53, which is exact, and an integer x
// satisfies x*2^-53 < p iff x < ceil(p*2^53). Loops drawing many Bools
// with one p compare against the cut instead of converting each draw.
func BoolCut(p float64) uint64 { return uint64(math.Ceil(p * (1 << 53))) }

// BoolRun makes up to n Bool draws against cut (see BoolCut) and
// returns the index of the first true one, or n if none is true. The
// draws are taken in groups of group >= 1, and the stream is left at
// the start of the group holding the first true draw: after
// i/group*group draws for a return value i. Lookahead loops run it on
// a copy of a stream and later resume at that group boundary instead
// of drawing the same values again. The state stays in registers, so
// it costs what the draws cost.
func (s *Stream) BoolRun(cut uint64, n, group int) int {
	s0, s1, s2, s3 := s.s0, s.s1, s.s2, s.s3
	g0, g1, g2, g3 := s0, s1, s2, s3 // state at the current group's start
	k := 0                           // draws into the current group
	for i := 0; i < n; i++ {
		if k == group {
			g0, g1, g2, g3, k = s0, s1, s2, s3, 0
		}
		k++
		// Uint64's step on locals. A helper shared with Uint64 would
		// push Uint64 over the compiler's inlining budget.
		result := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		if result>>11 < cut {
			s.s0, s.s1, s.s2, s.s3 = g0, g1, g2, g3
			return i
		}
	}
	if k == group {
		g0, g1, g2, g3 = s0, s1, s2, s3
	}
	s.s0, s.s1, s.s2, s.s3 = g0, g1, g2, g3
	return n
}

// Normal returns a sample from the normal distribution with the given
// mean and standard deviation, using the Marsaglia polar method.
func (s *Stream) Normal(mean, stddev float64) float64 {
	if s.haveSpare {
		s.haveSpare = false
		return mean + stddev*s.spare
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			f := math.Sqrt(-2 * math.Log(q) / q)
			s.spare = v * f
			s.haveSpare = true
			return mean + stddev*u*f
		}
	}
}

// LogNormal returns a sample whose natural logarithm is normally
// distributed with parameters mu and sigma.
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Exponential returns a sample from the exponential distribution with
// the given mean (mean = 1/rate).
func (s *Stream) Exponential(mean float64) float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -mean * math.Log(u)
		}
	}
}

// Poisson returns a sample from the Poisson distribution with the given
// mean. For large means it uses the normal approximation, which is more
// than adequate for the error-count magnitudes simulated here.
func (s *Stream) Poisson(mean float64) int64 {
	return NewPoisson(mean).Draw(s)
}

// Poisson is a Poisson distribution with a fixed mean. It computes
// exp(-mean) (or, above mean 64, the normal approximation's standard
// deviation) once, so a caller drawing repeatedly at one rate skips
// that per draw; each Draw consumes the stream exactly as
// Stream.Poisson(mean) does.
type Poisson struct {
	mean float64
	// l is exp(-mean) for Knuth's method, sd is sqrt(mean) for the
	// normal approximation; only the one the mean selects is set.
	l, sd float64
}

// NewPoisson returns the Poisson distribution with the given mean.
func NewPoisson(mean float64) Poisson {
	p := Poisson{mean: mean}
	switch {
	case mean > 64:
		p.sd = math.Sqrt(mean)
	case mean > 0:
		p.l = math.Exp(-mean)
	}
	return p
}

// Draw returns one sample from the distribution.
func (p Poisson) Draw(s *Stream) int64 {
	if p.mean <= 0 {
		return 0
	}
	if p.mean > 64 {
		v := s.Normal(p.mean, p.sd)
		if v < 0 {
			return 0
		}
		return int64(v + 0.5)
	}
	// Knuth's method for small means.
	var k int64
	u := 1.0
	for {
		u *= s.Float64()
		if u <= p.l {
			return k
		}
		k++
	}
}

// Binomial returns a sample from Binomial(n, p). It uses exact Bernoulli
// summation for small n and a Poisson or normal approximation for large
// n, matching the regimes where those approximations are accurate.
func (s *Stream) Binomial(n int64, p float64) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	mean := float64(n) * p
	switch {
	case n <= 64:
		var k int64
		for i := int64(0); i < n; i++ {
			if s.Float64() < p {
				k++
			}
		}
		return k
	case mean < 32 && p < 0.05:
		// Poisson limit theorem regime.
		k := s.Poisson(mean)
		if k > n {
			k = n
		}
		return k
	default:
		sd := math.Sqrt(float64(n) * p * (1 - p))
		v := s.Normal(mean, sd)
		if v < 0 {
			return 0
		}
		if v > float64(n) {
			return n
		}
		return int64(v + 0.5)
	}
}

// Zipf samples integers in [0, n) with probability proportional to
// 1/(i+1)^theta. It precomputes nothing; for the row-hotness workloads
// used here n is small enough for inverse-CDF sampling via a cached
// table to be unnecessary, but a Zipfian helper type is provided for
// hot loops.
type Zipf struct {
	cdf []float64
	src *Stream
}

// NewZipf builds a Zipf sampler over [0, n) with exponent theta > 0.
func NewZipf(src *Stream, n int, theta float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, src: src}
}

// Next returns the next Zipf-distributed sample.
func (z *Zipf) Next() int {
	u := z.src.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
