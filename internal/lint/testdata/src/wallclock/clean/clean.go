// Package wallclockclean uses only the virtual clock and time's pure
// value types; the wallclock analyzer must stay silent.
package wallclockclean

import (
	"time"

	"mob4x4/internal/vtime"
)

// Backoff doubles a retransmission interval, capped at a second. Duration
// arithmetic and constants are fine — only clock reads are banned.
func Backoff(d vtime.Duration) vtime.Duration {
	d *= 2
	if d > time.Second {
		d = time.Second
	}
	return d
}

// Fire schedules on the virtual clock: vtime.NewTimer is not
// time.NewTimer.
func Fire(s *vtime.Scheduler, d vtime.Duration, fn func()) *vtime.Timer {
	t := vtime.NewTimer(fn)
	t.Reset(s, d)
	return t
}
