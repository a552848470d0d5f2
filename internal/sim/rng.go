// Package sim provides the discrete-event simulation substrate used by the
// MMR router and network models: a deterministic pseudo-random number
// generator, a monotonic simulation clock, and a binary-heap event queue.
//
// The paper's evaluation (§5) was produced with a C++ discrete-event
// simulator; this package is the Go equivalent. Determinism matters for
// reproducibility, so the RNG is a self-contained PCG variant whose stream
// is stable across Go releases (unlike math/rand's unspecified sources).
package sim

import "math"

// RNG is a deterministic 64-bit pseudo-random number generator
// (xorshift128+ with a splitmix64-seeded state). It is not safe for
// concurrent use; give each simulation its own instance.
type RNG struct {
	s0, s1    uint64
	gauss     float64
	haveGauss bool
}

// NewRNG returns a generator seeded from seed via splitmix64 so that
// nearby seeds yield uncorrelated streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// NewStreamRNG returns the generator for one of a family of decorrelated
// streams derived from a single master seed. Stream k is seeded with
// seed + (k+1)·φ64 (the splitmix64 golden-ratio increment), then run
// through the usual splitmix64 expansion — so nearby (seed, stream) pairs
// land far apart in the seeding sequence and the streams are mutually
// uncorrelated. The network simulation gives every router node its own
// stream so a node's random decisions do not depend on which other nodes
// ran, or drew, before it.
func NewStreamRNG(seed, stream uint64) *RNG {
	return NewRNG(seed + (stream+1)*0x9e3779b97f4a7c15)
}

// Seed resets the generator state as if freshly constructed with seed.
func (r *RNG) Seed(seed uint64) {
	r.haveGauss = false
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0 = next()
	r.s1 = next()
	if r.s0 == 0 && r.s1 == 0 { // xorshift state must be nonzero
		r.s0 = 1
	}
}

// RNGState is the full serializable state of an RNG: the xorshift128+
// words plus the cached Box-Muller variate. Restoring it reproduces the
// stream bit-for-bit, including a pending second normal draw.
type RNGState struct {
	S0, S1    uint64
	Gauss     float64
	HaveGauss bool
}

// State exports the generator's complete state for checkpointing.
func (r *RNG) State() RNGState {
	return RNGState{S0: r.s0, S1: r.s1, Gauss: r.gauss, HaveGauss: r.haveGauss}
}

// Restore overwrites the generator's state with a previously exported
// snapshot.
func (r *RNG) Restore(st RNGState) {
	r.s0, r.s1 = st.S0, st.S1
	r.gauss, r.haveGauss = st.Gauss, st.HaveGauss
}

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method keeps the distribution
	// exactly uniform without a modulo bias.
	un := uint64(n)
	threshold := (-un) % un
	for {
		hi, lo := mul64(r.Uint64(), un)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// shuffle permutes a caller-provided slice in place.
func (r *RNG) shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Exp returns an exponentially distributed value with the given mean
// (inverse-transform sampling). Used by Poisson best-effort sources.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	// Float64 never returns 1.0, so 1-u > 0 and Log is finite.
	return -mean * math.Log(1-u)
}

// Norm returns a standard normal variate (Box-Muller). Used for the
// multiplicative size noise of VBR frame generators.
func (r *RNG) Norm() float64 {
	if r.haveGauss {
		r.haveGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.haveGauss = true
	return u * f
}
