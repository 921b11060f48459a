// Package sharedrandclean derives one math/rand/v2 stream per entity
// from (seed, domain, index): each entity's draw sequence is a pure
// function of the seed, whatever order events interleave in. The
// sharedrand analyzer must stay silent.
package sharedrandclean

import "math/rand/v2"

// linkDomain tags the second PCG seed word of every link stream.
const linkDomain = 1 << 56

// sched mints streams; it never hands out its own.
type sched struct {
	seed    uint64
	streams uint64
}

// NewStream derives an independent stream for the next entity index.
func (s *sched) NewStream() *rand.Rand {
	s.streams++
	return rand.New(rand.NewPCG(s.seed, linkDomain|s.streams))
}

// link owns its stream for its whole lifetime.
type link struct {
	rng *rand.Rand
}

// newLink threads a freshly derived stream into the entity.
func newLink(s *sched) *link {
	return &link{rng: s.NewStream()}
}

// Impair draws only from the link's own stream.
func (l *link) Impair() bool {
	return l.rng.Float64() < 0.5
}

// Reorder permutes with the link's own stream, including the draws
// whose names the analyzer flags on the package-level stream.
func (l *link) Reorder(xs []int) int64 {
	l.rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return l.rng.Int64N(100) + int64(l.rng.IntN(len(xs)+1))
}
