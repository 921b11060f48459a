package experiments

import (
	"fmt"
	"strings"

	"mob4x4/internal/assert"
	"mob4x4/internal/core"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/mobileip"
	"mob4x4/internal/tcplite"
	"mob4x4/internal/vtime"
)

// AdaptiveRow is one strategy's cost in one environment (experiment E10,
// Section 7.1.2).
type AdaptiveRow struct {
	Strategy  string
	Filtering bool // source filtering between MH and CH
	// Completed reports whether the transfer finished.
	Completed bool
	// TimeToComplete is virtual time from dial to full echo.
	TimeToComplete vtime.Duration
	// Retransmissions wasted probing non-working modes (plus loss).
	Retransmissions uint64
	// ModeSwitches by the selector during the conversation.
	ModeSwitches uint64
	// FinalMode is the delivery method the conversation converged on.
	FinalMode core.OutMode
}

// RunAdaptive executes experiment E10: a small TCP transfer from the MH
// to the correspondent inside the (optionally filtering) home domain,
// under three start strategies:
//
//   - pessimistic: start Out-IE, no probing (always works, never optimal);
//   - optimistic: start Out-DH, fall back on retransmission feedback;
//   - ruled: the paper's address/mask table pins Out-IE for the home
//     network, so the conversation starts correctly with no waste.
func RunAdaptive(seed int64, filtering bool) []AdaptiveRow {
	names := adaptiveStrategyNames()
	rows := make([]AdaptiveRow, len(names))
	for i, name := range names {
		rows[i] = runAdaptiveStrategy(seed, filtering, name)
	}
	return rows
}

func adaptiveStrategyNames() []string {
	return []string{"pessimistic", "optimistic", "ruled"}
}

func newAdaptiveSelector(strategy string, filtering bool) *core.Selector {
	switch strategy {
	case "pessimistic":
		return core.NewSelector(core.StartPessimistic)
	case "optimistic":
		return core.NewSelector(core.StartOptimistic)
	default: // ruled
		sel := core.NewSelector(core.StartOptimistic)
		if filtering {
			// "a single rule to identify, for example, the entire
			// home network as a region where Out-IE should always
			// be used".
			m := core.OutIE
			sel.AddRule(core.Rule{Prefix: ipv4.MustParsePrefix("36.1.1.0/24"), ForceMode: &m})
		}
		return sel
	}
}

// runAdaptiveStrategy measures one start strategy in its own scenario; it
// is the unit of work the parallel runner schedules.
func runAdaptiveStrategy(seed int64, filtering bool, strategy string) AdaptiveRow {
	sel := newAdaptiveSelector(strategy, filtering)
	s := Build(Options{Seed: seed, HomeFilter: filtering, Selector: sel})
	s.Roam()

	// Wire the Section 7.1.2 feedback loop: transport
	// retransmissions drive selector fallback.
	fb := &mobileip.SelectorFeedback{Selector: sel}
	s.MHTCP.Feedback = fb
	// Out-DE must be skipped for this correspondent: it cannot
	// decapsulate (conventional host), and the paper's selector is
	// allowed to know per-host capabilities.
	sel.CHCanDecapsulate = func(ipv4.Addr) bool { return false }

	const payload = 4000
	target := s.CHHome.FirstAddr()
	done := false
	start := s.Net.Sim.Now()
	var doneAt vtime.Time
	if _, err := s.CHHomeTCP.Listen(7001, func(c *tcplite.Conn) {
		var got int
		c.OnData = func(p []byte) {
			got += len(p)
			if got >= payload && !done {
				done = true
				doneAt = s.Net.Sim.Now()
			}
		}
	}); err != nil {
		assert.Unreachable("adaptive: start echo server: %v", err)
	}

	conn, err := s.MHTCP.Dial(s.MN.Home(), target, 7001)
	assert.NoError(err, "adaptive: dial echo server")
	conn.OnEstablished = func() { _ = conn.Write(make([]byte, payload)) }
	s.Net.RunFor(120 * Second)

	elapsed := s.Net.Sim.Now().Sub(start)
	if done {
		elapsed = doneAt.Sub(start)
	}
	return AdaptiveRow{
		Strategy:        strategy,
		Filtering:       filtering,
		Completed:       done,
		TimeToComplete:  elapsed,
		Retransmissions: s.MHTCP.Stats.Retransmissions,
		ModeSwitches:    sel.ModeSwitches,
		FinalMode:       sel.ModeFor(target),
	}
}

// AdaptiveTable renders E10.
func AdaptiveTable(rows []AdaptiveRow) string {
	var b strings.Builder
	if len(rows) > 0 {
		fmt.Fprintf(&b, "Section 7.1.2 — start-strategy cost (home-domain filtering: %v)\n", rows[0].Filtering)
	}
	fmt.Fprintf(&b, "  %-12s %10s %12s %9s %9s %10s\n",
		"strategy", "completed", "time", "retrans", "switches", "finalmode")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-12s %10v %12v %9d %9d %10s\n",
			r.Strategy, r.Completed, r.TimeToComplete, r.Retransmissions, r.ModeSwitches, r.FinalMode)
	}
	return b.String()
}
