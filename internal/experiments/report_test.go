package experiments

import (
	"strings"
	"testing"
)

// TestReportCoversEverything smoke-tests the all-experiments document:
// it must run to completion and hold a section for exactly the entries
// `mob4x4 all` runs, with the grid's headline agreement intact.
func TestReportCoversEverything(t *testing.T) {
	c := DefaultConfig()
	c.Seed = 3
	out := Report(c).Text
	for _, e := range Registry {
		if got := strings.Contains(out, "## "+e.Heading+"\n"); got != e.InAll {
			t.Errorf("report has section %q = %v, want %v (InAll)", e.Heading, got, e.InAll)
		}
	}
	if want := "agreement with paper classification: 16/16"; !strings.Contains(out, want) {
		t.Errorf("report missing %q", want)
	}
	// Deterministic per seed, for any worker count: the reproduction's
	// core guarantee.
	c.Parallel = 4
	if Report(c).Text != out {
		t.Error("report not deterministic for a fixed seed")
	}
}
