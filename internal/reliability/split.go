package reliability

// This file is the deterministic sub-stream splitter of the sweep
// engine. Sweeps fan trials across goroutines but must stay
// bit-identical at any worker count, so randomness is never drawn from
// a stream owned by a worker: every trial derives its own sub-stream
// from (base seed, stream id, trial index), and workers are pure
// executors of trial indices. Resharding the same indices across a
// different number of workers replays exactly the same draws.

// mix64 is the splitmix64 finalizer: an invertible avalanche of all 64
// bits, the standard way to turn structured counters into independent-
// looking seeds.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// golden is the splitmix64 stream increment (2^64 / phi), chosen so
// consecutive counters land far apart after mixing.
const golden = 0x9e3779b97f4a7c15

// SubSeed derives the seed of the (stream, index) sub-stream of seed.
// Distinct (stream, index) pairs give decorrelated sub-streams; the
// same triple always gives the same value, independent of which worker
// asks for it or in what order.
func SubSeed(seed int64, stream, index uint64) int64 {
	z := mix64(uint64(seed) + golden*(stream+1))
	return int64(mix64(z + golden*index))
}

// Rand is a small allocation-free PRNG over one sub-stream: splitmix64
// advanced by a fixed increment. Seed repositions the generator in
// place, so a long-lived worker re-seeds per task without allocating —
// the property the reliability engine's 0-allocs-per-trial hot loop
// needs (math/rand.New allocates per source). The zero value is the
// (0,0,0) sub-stream; call Seed before use.
type Rand struct {
	state uint64
}

// Seed positions the generator at the (stream, index) sub-stream of
// seed. Draw sequences after equal Seed calls are identical.
func (r *Rand) Seed(seed int64, stream, index uint64) {
	r.state = uint64(SubSeed(seed, stream, index))
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += golden
	return mix64(r.state)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0. Like
// math/rand it discards draws that would bias the modulus, so the
// number of draws consumed depends only on the random sequence itself.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("reliability: Intn with non-positive n")
	}
	max := uint64(n)
	// Rejection zone: the largest multiple of n that fits in 64 bits.
	limit := (^uint64(0) / max) * max
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}
