package experiments

import (
	"strings"
	"testing"

	"mob4x4/internal/core"
)

func TestFig1Shape(t *testing.T) {
	r := RunFig1(1)
	if !r.Ping.Delivered {
		t.Fatalf("ping not delivered: %s", r.String())
	}
	if r.HATunneled != 1 || r.MHDetunneled != 1 {
		t.Errorf("tunnel counts = %d/%d, want 1/1", r.HATunneled, r.MHDetunneled)
	}
	// Figure 1's asymmetry: the incoming path (via the home agent) is
	// strictly longer than the direct outgoing path.
	if r.Ping.RequestHops <= r.Ping.ReplyHops {
		t.Errorf("expected request hops (%d) > reply hops (%d); paths:\n in: %s\n out: %s",
			r.Ping.RequestHops, r.Ping.ReplyHops, r.Ping.RequestPath, r.Ping.ReplyPath)
	}
}

func TestFig2FilteringOn(t *testing.T) {
	r := RunFig2(1, true)
	for _, row := range r.Rows {
		switch row.Mode {
		case core.OutDH:
			// Figure 2: every Out-DH packet dies at the boundary.
			if row.Delivered != 0 {
				t.Errorf("Out-DH delivered %d/%d with filtering on; want 0\npath: %s",
					row.Delivered, row.Sent, row.Path)
			}
			if row.FilterDrops == 0 {
				t.Error("Out-DH: no filter drops recorded at home boundary")
			}
		case core.OutDE, core.OutIE:
			// Figure 3: tunneling restores deliverability.
			if row.Delivered != row.Sent {
				t.Errorf("%s delivered %d/%d with filtering on; want all\npath: %s",
					row.Mode, row.Delivered, row.Sent, row.Path)
			}
		}
	}
}

func TestFig2FilteringOff(t *testing.T) {
	r := RunFig2(1, false)
	for _, row := range r.Rows {
		if row.Delivered != row.Sent {
			t.Errorf("%s delivered %d/%d with filtering off; want all\npath: %s",
				row.Mode, row.Delivered, row.Sent, row.Path)
		}
		if row.FilterDrops != 0 {
			t.Errorf("%s: %d filter drops with filtering off", row.Mode, row.FilterDrops)
		}
	}
}

func TestFig4TrianglePenaltyGrows(t *testing.T) {
	rows := RunFig4(1, []int{0, 2, 4, 8})
	for i, r := range rows {
		if r.InIERTT <= r.InDERTT {
			t.Errorf("d=%d: In-IE RTT %v not greater than In-DE RTT %v",
				r.HADistance, r.InIERTT, r.InDERTT)
		}
		if i > 0 {
			prev := rows[i-1]
			if r.InIERTT <= prev.InIERTT {
				t.Errorf("In-IE RTT did not grow with distance: d=%d %v vs d=%d %v",
					r.HADistance, r.InIERTT, prev.HADistance, prev.InIERTT)
			}
			if r.InDERTT != prev.InDERTT {
				t.Errorf("In-DE RTT changed with HA distance: d=%d %v vs d=%d %v (direct path must not involve the HA)",
					r.HADistance, r.InDERTT, prev.HADistance, prev.InDERTT)
			}
		}
	}
}

func TestFig5Discovery(t *testing.T) {
	r := RunFig5(1)
	if len(r.Hops) < 2 {
		t.Fatalf("too few pings: %v", r.Hops)
	}
	if r.SwitchedAt < 0 {
		t.Fatalf("correspondent never switched to In-DE:\n%s", r.String())
	}
	first, last := r.Hops[0], r.Hops[len(r.Hops)-1]
	if first <= last {
		t.Errorf("hops did not drop after discovery: first=%d last=%d", first, last)
	}
	if !r.ViaDNSWorked {
		t.Error("DNS CA-record discovery failed")
	}
}

func TestGridMatchesPaperClassification(t *testing.T) {
	cells := RunGrid(1)
	if len(cells) != 16 {
		t.Fatalf("got %d cells, want 16", len(cells))
	}
	matches, total, mismatches := GridAgreement(cells)
	if matches != total {
		for _, c := range mismatches {
			t.Errorf("cell %s: class=%v deliveredIn=%v deliveredOut=%v consistent=%v",
				c.Combo, c.Class, c.DeliveredIn, c.DeliveredOut, c.Consistent)
		}
		t.Fatalf("grid agreement %d/%d\n%s", matches, total, GridTable(cells))
	}
	// Count classes: 7 useful, 3 valid-unlikely, 6 broken.
	counts := map[core.Class]int{}
	for _, c := range cells {
		counts[c.Class]++
	}
	if counts[core.Useful] != 7 || counts[core.ValidUnlikely] != 3 || counts[core.Broken] != 6 {
		t.Errorf("class counts = %v, want 7/3/6", counts)
	}
}

// TestGridMismatchIsViolation: a cell whose measured TCP outcome
// disagrees with the paper's class breaks the grid entry's invariant in
// both output forms; only the table form lists it.
func TestGridMismatchIsViolation(t *testing.T) {
	cells := RunGrid(1)
	if out := gridOutput(Config{Seed: 1}, cells); len(out.Violations) != 0 {
		t.Fatalf("measured grid reports violations: %v", out.Violations)
	}
	for i := range cells {
		if cells[i].Class != core.Broken {
			cells[i].Class = core.Broken // the paper would now expect TCP to fail
			break
		}
	}
	table := gridOutput(Config{Seed: 3}, cells)
	if len(table.Violations) != 1 || table.Violations[0].Seed != 3 {
		t.Fatalf("table form violations = %v, want one at seed 3", table.Violations)
	}
	if !strings.Contains(table.Text, "agreement with paper classification: 15/16\n  MISMATCH "+table.Violations[0].What) {
		t.Errorf("table form does not list the mismatch:\n%s", table.Text)
	}
	report := gridOutput(Config{Seed: 3, Metrics: true}, cells)
	if len(report.Violations) != 1 || strings.Contains(report.Text, "MISMATCH") {
		t.Errorf("metrics form: %d violations, text lists mismatch=%v", len(report.Violations), strings.Contains(report.Text, "MISMATCH"))
	}
}

func TestGridHopShapes(t *testing.T) {
	cells := RunGrid(1)
	byCombo := map[core.Combo]GridCell{}
	for _, c := range cells {
		byCombo[c.Combo] = c
	}
	// In-IE incoming must travel further than In-DE incoming (triangle).
	ieIn := byCombo[core.Combo{In: core.InIE, Out: core.OutDH}].InHops
	deIn := byCombo[core.Combo{In: core.InDE, Out: core.OutDH}].InHops
	if ieIn <= deIn {
		t.Errorf("In-IE hops (%d) not greater than In-DE hops (%d)", ieIn, deIn)
	}
	// Same-segment delivery involves no routers at all.
	dhdh := byCombo[core.Combo{In: core.InDH, Out: core.OutDH}]
	if dhdh.InHops != 0 || dhdh.OutHops != 0 {
		t.Errorf("In-DH/Out-DH hops = %d/%d, want 0/0", dhdh.InHops, dhdh.OutHops)
	}
	// Out-IE replies travel further than Out-DH replies.
	outIE := byCombo[core.Combo{In: core.InIE, Out: core.OutIE}].OutHops
	outDH := byCombo[core.Combo{In: core.InIE, Out: core.OutDH}].OutHops
	if outIE <= outDH {
		t.Errorf("Out-IE hops (%d) not greater than Out-DH hops (%d)", outIE, outDH)
	}
}
