// The same three shapes on math/rand/v2: its global stream, its stream
// types parked in package-level vars, and a Rand() accessor handing one
// entity's v2 stream to another.
package sharedrandbad

import "math/rand/v2"

// sharedV2 is one PCG-backed stream for every Sim and shard.
var sharedV2 = rand.New(rand.NewPCG(1, 2))

// sharedPCG parks the bare source instead; just as shared.
var sharedPCG = rand.NewPCG(1, 2)

// Backoff draws from the v2 global stream.
func Backoff() int64 {
	return rand.Int64N(100)
}

// Pick draws an index from the v2 global stream.
func Pick(n int) int {
	return rand.IntN(n)
}

// Window draws through the generic helper, explicitly instantiated.
func Window() int64 {
	return rand.N[int64](100)
}

// Spread draws through the generic helper with an inferred type.
func Spread(max uint64) uint64 {
	return rand.N(max) + rand.Uint64N(max)
}

// Order permutes and shuffles with the v2 global stream.
func Order(xs []int) []int {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return rand.Perm(len(xs))
}

// v2sched owns a v2 stream and leaks it through an accessor.
type v2sched struct {
	rng *rand.Rand
}

// Rand hands the scheduler's stream to whoever asks.
func (s *v2sched) Rand() *rand.Rand { return s.rng }

// Drop couples its draws to every other consumer of the stream.
func Drop(s *v2sched) bool {
	return s.Rand().Float64() < 0.5
}
