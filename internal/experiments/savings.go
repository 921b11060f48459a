package experiments

import (
	"fmt"
	"strings"

	"mob4x4/internal/core"
)

// SavingsRow quantifies the paper's §3.2 motivation — indirect delivery
// "affects other users by increasing the overall load on the shared
// resources of the Internet" — for one correspondent-capability level.
type SavingsRow struct {
	Setup string
	// RouterForwards and BackboneBytes are the total network work for a
	// fixed 20-round-trip conversation.
	RouterForwards uint64
	BackboneBytes  uint64
	MeanRTT        float64 // milliseconds
	Delivered      int
}

// RunSavings measures the same conversation (20 echo round trips)
// under three correspondent setups: conventional (everything via the home
// agent), mobile-aware (In-DE after discovery), and same-segment (In-DH).
func RunSavings(seed int64) []SavingsRow {
	type setup struct {
		name  string
		aware bool
		near  bool
	}
	setups := []setup{
		{"conventional (In-IE)", false, false},
		{"mobile-aware (In-DE)", true, false},
		{"same-segment (In-DH)", true, true},
	}
	var rows []SavingsRow
	for _, cfg := range setups {
		s := Build(Options{
			Seed: seed, Notices: cfg.aware, CHAware: cfg.aware, CHDecap: cfg.aware,
			Selector: core.NewSelector(core.StartOptimistic),
		})
		careOf := s.Roam()
		ic := s.CHFarIC
		host := s.CHFar
		if cfg.near {
			ic = s.CHNearIC
			host = s.CHNear
			s.CHNearC.LearnBinding(core.Binding{Home: s.MN.Home(), CareOf: careOf}, 0)
		}

		fwdBefore := s.Net.Sim.Metrics.IPForwarded.Value()
		bytesBefore := backboneBytes(s)
		row := SavingsRow{Setup: cfg.name}
		var totalRTT float64
		const rounds = 20
		for i := 0; i < rounds; i++ {
			p := s.PingFrom(ic, host, s.MN.Home(), 2*Second)
			if p.Delivered {
				row.Delivered++
				totalRTT += float64(p.RTT) / 1e6
			}
		}
		row.RouterForwards = s.Net.Sim.Metrics.IPForwarded.Value() - fwdBefore
		row.BackboneBytes = backboneBytes(s) - bytesBefore
		if row.Delivered > 0 {
			row.MeanRTT = totalRTT / float64(row.Delivered)
		}
		rows = append(rows, row)
	}
	return rows
}

func backboneBytes(s *Scenario) uint64 {
	var total uint64
	for _, seg := range s.Net.Sim.Segments() {
		if strings.HasPrefix(seg.Name(), "p2p-") {
			total += seg.BytesCarried
		}
	}
	return total
}

// SavingsTable renders the comparison.
func SavingsTable(rows []SavingsRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§3.2 — shared-resource load of a 20-round-trip echo conversation\n")
	fmt.Fprintf(&b, "  %-22s %10s %15s %14s %10s\n", "correspondent", "delivered", "router-forwards", "backbone-bytes", "mean RTT")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-22s %10d %15d %14d %8.1fms\n",
			r.Setup, r.Delivered, r.RouterForwards, r.BackboneBytes, r.MeanRTT)
	}
	return b.String()
}
