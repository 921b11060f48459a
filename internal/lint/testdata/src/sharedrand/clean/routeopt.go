// Retransmission jitter drawn from the pusher's own stream: the
// backoff sequence is a pure function of (seed, index).
package sharedrandclean

import "math/rand/v2"

// pusher owns its jitter stream for its whole lifetime.
type pusher struct {
	rng *rand.Rand
}

// retransmitJitter draws only from the pusher's own stream.
func (p *pusher) retransmitJitter() int64 {
	return p.rng.Int64N(50)
}
