package experiments

import (
	"testing"

	"mob4x4/internal/fleet"
	"mob4x4/internal/metrics"
)

// tunnelEndpoints are the roles that count their own encapsulations and
// decapsulations: home agent, mobile node, correspondent, foreign agent
// and regional gateway.
var tunnelEndpoints = []string{"ha", "mn", "ch", "fa", "gfa"}

// checkTunnelCounts asserts that the endpoints' tunnel counts in s sum to
// the registry's global totals, in both directions, and returns the
// global encapsulation total. Each endpoint bumps both its own count and
// the global one; a site that forgets either breaks the sum.
func checkTunnelCounts(t *testing.T, label string, s metrics.Snapshot) uint64 {
	t.Helper()
	for _, dir := range []string{"encaps", "decaps"} {
		total, _ := s.Counter("tunnel/" + dir)
		var sum uint64
		for _, role := range tunnelEndpoints {
			v, _ := s.Counter(role + "/" + dir)
			sum += v
		}
		if sum != total {
			t.Errorf("%s: endpoint %s sum to %d, tunnel/%s = %d", label, dir, sum, dir, total)
		}
	}
	encaps, _ := s.Counter("tunnel/encaps")
	return encaps
}

// TestTunnelCountsConservedGrid checks the sum in each of the 16
// Figure 10 worlds.
func TestTunnelCountsConservedGrid(t *testing.T) {
	var c metrics.Collector
	SetCollector(&c)
	defer SetCollector(nil)
	for _, combo := range allGridCombos() {
		runGridCell(1, combo)
	}
	snaps := c.Snapshots()
	if len(snaps) != 16 {
		t.Fatalf("collected %d grid registries, want 16", len(snaps))
	}
	var encaps uint64
	for _, ls := range snaps {
		encaps += checkTunnelCounts(t, ls.Label, ls.Snap)
	}
	if encaps == 0 {
		t.Fatal("the grid tunneled nothing")
	}
}

// TestTunnelCountsConservedFleet checks the sum in the merged metrics of
// a sharded fleet, with the regional gateway tier and with compact
// encapsulation.
func TestTunnelCountsConservedFleet(t *testing.T) {
	for _, tc := range []struct {
		name string
		ro   fleet.RouteOptOptions
		role string // an endpoint the configuration must make tunnel
	}{
		{"hierarchical", fleet.RouteOptOptions{Hierarchical: true}, "gfa"},
		{"compact", fleet.RouteOptOptions{Compact: true}, "ch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := fleet.New(fleet.Options{Seed: 1, Nodes: 24, Cells: 4, Workers: 2, RouteOpt: tc.ro}).Run()
			if checkTunnelCounts(t, tc.name, r.Metrics) == 0 {
				t.Fatal("the fleet tunneled nothing")
			}
			if v, _ := r.Metrics.Counter(tc.role + "/encaps"); v == 0 {
				t.Errorf("%s/encaps = 0", tc.role)
			}
		})
	}
}
