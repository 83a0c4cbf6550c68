// Package splitmix is the splitmix64 generator (Steele, Lea and Flood,
// OOPSLA 2014): the one deterministic, portable random stream behind the
// synthetic program generator, the analytic model's training profiles,
// the explorer's audit sample, the sampling phase offset and the chaos
// fault rolls. Synthetic program text is part of the job key, so a stream
// must never change.
package splitmix

// Gamma is the generator's increment; seeds mix it in so that nearby
// seeds start unrelated streams.
const Gamma = 0x9E3779B97F4A7C15

// Rand is a splitmix64 stream; its value is the generator state.
type Rand uint64

// Next advances the stream and returns its next value.
func (r *Rand) Next() uint64 {
	*r += Gamma
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float returns a uniform value in [0, 1).
func (r *Rand) Float() float64 { return float64(r.Next()>>11) / (1 << 53) }

// Intn returns a value in [0, n), reduced modulo n.
func (r *Rand) Intn(n int) int { return int(r.Next() % uint64(n)) }
