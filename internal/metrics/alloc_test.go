package metrics

import (
	"testing"

	"mob4x4/internal/race"
)

// TestHotPathInstrumentsZeroAllocs pins the instruments used on the
// per-packet fast path — static counter increments, named counters, the
// drop-cause vector, and histogram observation — at zero
// allocations per operation. If any of these ever allocates, the
// stack's steady-state forwarding pins (stack/alloc_test.go) break too;
// this test localizes the blame.
func TestHotPathInstrumentsZeroAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	r := NewRegistry()
	h := r.Histogram("rtt", DefaultLatencyBuckets)
	named := r.Counter("named")

	allocs := testing.AllocsPerRun(1000, func() {
		r.IPSent.Inc()
		r.IPForwarded.Add(3)
		r.LinkBytes.Add(1514)
		r.Drop(DropGilbertElliott)
		h.Observe(7e6)
		named.Inc()
	})
	if allocs != 0 {
		t.Fatalf("hot-path instrument updates allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkCounterInc keeps the single-increment cost visible in bench
// runs (it should be a handful of nanoseconds — one add through a
// pointer).
func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < b.N; i++ {
		r.IPForwarded.Inc()
	}
	if r.IPForwarded.Value() != uint64(b.N) {
		b.Fatal("miscount")
	}
}
