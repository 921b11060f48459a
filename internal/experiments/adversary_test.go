package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// The E15 differential fixtures: the adversary report (attack trial plus
// clean twin) must be byte-identical run-to-run and across any -parallel
// worker count, and every hijack-resistance invariant must hold at CI
// size.

var adversaryTestSpec = FleetSpec{Nodes: 24, Cells: 4}

func runAdversaryTrials(seed int64, trials, workers int) []AdversaryResult {
	return runTrials(seed, trials, workers, func(s int64) AdversaryResult { return RunAdversary(s, adversaryTestSpec) })
}

func TestAdversaryReportParallelIdentical(t *testing.T) {
	serial := runAdversaryTrials(31, 2, 1)
	want := AdversaryTable(serial)
	rows := runAdversaryTrials(31, 2, 4)
	if got := AdversaryTable(rows); got != want {
		t.Errorf("AdversaryTable differs between 1 and 4 workers:\n--- serial ---\n%s\n--- 4 workers ---\n%s",
			want, got)
	}
	for i := range rows {
		if a, b := string(serial[i].Attack.Metrics.JSON()), string(rows[i].Attack.Metrics.JSON()); a != b {
			t.Errorf("trial %d attacked metrics snapshot differs at 4 workers", i)
		}
	}
}

func TestAdversaryRepeatSameSeedIdentical(t *testing.T) {
	a := RunAdversary(47, adversaryTestSpec)
	b := RunAdversary(47, adversaryTestSpec)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed adversary trials diverged:\n%+v\nvs\n%+v", a, b)
	}
}

func TestAdversaryTableReportsViolations(t *testing.T) {
	r := RunAdversary(47, adversaryTestSpec)
	if len(r.Violations) != 0 {
		t.Fatalf("healthy seed produced violations: %v", r.Violations)
	}
	r.Violations = append(r.Violations, "synthetic violation for rendering")
	out := AdversaryTable([]AdversaryResult{r})
	if want := "VIOLATION: synthetic violation for rendering"; !strings.Contains(out, want) {
		t.Errorf("AdversaryTable output missing %q:\n%s", want, out)
	}
}

// TestAdversarySmoke is the CI hijack-resistance soak: one small
// authenticated storm under attack, run with -race, must complete with
// zero hijacks, exact attack attribution, and the legit fleet inside the
// latency envelope of its clean twin.
func TestAdversarySmoke(t *testing.T) {
	seed := smokeSeed(t)
	r := RunAdversary(seed, adversaryTestSpec)
	for _, v := range r.Violations {
		t.Errorf("seed %d: %s (reproduce: make smoke SEED=%d)", seed, v, seed)
	}
	a := &r.Attack
	if a.Hijacks != 0 {
		t.Errorf("seed %d: %d bindings pointed at attacker care-of addresses", seed, a.Hijacks)
	}
	if a.Forged == 0 || a.Replayed == 0 || a.Tampered == 0 {
		t.Errorf("seed %d: storm idle (forged=%d replayed=%d tampered=%d)", seed, a.Forged, a.Replayed, a.Tampered)
	}
	if a.Handoffs == 0 {
		t.Errorf("seed %d: legit fleet moved nothing under attack", seed)
	}
	if len(a.FaultLog) == 0 {
		t.Errorf("seed %d: empty fault log", seed)
	}
}
