package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// The E17 differential fixtures: the route-optimization report (six
// configurations off one seed and schedule) must be byte-identical
// run-to-run and across any -parallel worker count, and every
// cross-configuration claim must hold at CI size.

var routeOptTestSpec = FleetSpec{Nodes: 24, Cells: 4}

// TestRouteOptReportParallelIdentical drives the registry entry, so the
// shared fan-out and its worker split (one set per worker when there are
// several) are what is compared.
func TestRouteOptReportParallelIdentical(t *testing.T) {
	e, _ := Lookup("routeopt")
	c := Config{Seed: 31, Parallel: 1, Trials: 2, FleetSpec: routeOptTestSpec}
	serial := e.Run(c)
	c.Parallel = 4
	par := e.Run(c)
	if want, got := serial.Text, par.Text; got != want {
		t.Errorf("RouteOptTable differs between 1 and 4 workers:\n--- serial ---\n%s\n--- 4 workers ---\n%s",
			want, got)
	}
	if len(serial.Dumps) != 12 || len(par.Dumps) != len(serial.Dumps) {
		t.Fatalf("got %d/%d dumps, want 12 (two sets of six configurations)", len(serial.Dumps), len(par.Dumps))
	}
	for i := range par.Dumps {
		if a, b := string(serial.Dumps[i].Metrics.JSON()), string(par.Dumps[i].Metrics.JSON()); a != b {
			t.Errorf("%s metrics snapshot differs at 4 workers", par.Dumps[i].Label)
		}
	}
}

func TestRouteOptRepeatSameSeedIdentical(t *testing.T) {
	a := RunRouteOpt(47, 1, routeOptTestSpec)
	b := RunRouteOpt(47, 2, routeOptTestSpec)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed route-opt sets diverged across worker counts:\n%+v\nvs\n%+v", a, b)
	}
}

func TestRouteOptTableReportsViolations(t *testing.T) {
	r := RunRouteOpt(47, 2, routeOptTestSpec)
	if len(r.Violations) != 0 {
		t.Fatalf("healthy seed produced violations: %v", r.Violations)
	}
	r.Violations = append(r.Violations, "synthetic violation for rendering")
	out := RouteOptTable([]RouteOptResult{r})
	if want := "VIOLATION: synthetic violation for rendering"; !strings.Contains(out, want) {
		t.Errorf("RouteOptTable output missing %q:\n%s", want, out)
	}
	for _, name := range []string{"baseline", "push", "ha-push", "compact", "hier", "fallback"} {
		if !strings.Contains(out, name) {
			t.Errorf("RouteOptTable output missing the %q row:\n%s", name, out)
		}
	}
}

// TestRouteOptSmoke is the CI route-optimization soak: the six-way
// comparison at one seed, run with -race, must complete with every
// per-trial invariant and cross-trial claim intact — push shrinks the
// recovery tail, compact shrinks uplink bytes, hier shrinks the median
// handoff, and the blackholed fallback loses no conversation.
func TestRouteOptSmoke(t *testing.T) {
	seed := smokeSeed(t)
	r := RunRouteOpt(seed, 4, routeOptTestSpec)
	for _, v := range r.Violations {
		t.Errorf("seed %d: %s (reproduce: make smoke SEED=%d)", seed, v, seed)
	}
	for i := range r.Trials {
		tr := &r.Trials[i]
		if tr.Handoffs == 0 {
			t.Errorf("seed %d: %s trial moved nothing", seed, tr.Name)
		}
	}
}
