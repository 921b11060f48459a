package mobileip_test

import (
	"strings"
	"testing"

	"mob4x4/internal/core"
	"mob4x4/internal/icmphost"
	"mob4x4/internal/ipv4"
)

// TestMobileNodeReportsGridFromStats: the node's half of the 4x4 grid
// reaches the registry from its own Stats, and a zero cell is not
// reported at all, so a dump lists only the modes the node used.
func TestMobileNodeReportsGridFromStats(t *testing.T) {
	w := buildWorld(t, worldOpts{selector: core.NewSelector(core.StartOptimistic)})
	for _, c := range w.net.Sim.Metrics.Snapshot().Counters {
		if strings.HasPrefix(c.Name, "grid/") {
			t.Errorf("node at home with no traffic reported %s = %d", c.Name, c.Value)
		}
	}

	w.roam(t)
	ic := icmphost.Install(w.chFar)
	_ = ic.Ping(ipv4.Zero, w.mn.Home(), 1, 1, []byte("grid"))
	w.net.RunFor(2e9)

	snap := w.net.Sim.Metrics.Snapshot()
	st := w.mn.Stats
	zero, nonzero := 0, 0
	check := func(name string, want uint64) {
		got, ok := snap.Counter(name)
		if ok != (want != 0) || got != want {
			t.Errorf("%s = %d (present %v), want %d (present %v)", name, got, ok, want, want != 0)
		}
		if want == 0 {
			zero++
		} else {
			nonzero++
		}
	}
	for m := 0; m < core.NumOutModes; m++ {
		out, in := "{"+core.OutMode(m).String()+"}", "{"+core.InMode(m).String()+"}"
		check("grid/out_pkts"+out, st.OutByMode[m])
		check("grid/out_bytes"+out, st.OutBytes[m])
		check("grid/out_wire_bytes"+out, st.OutWireBytes[m])
		check("grid/in_pkts"+in, st.InByMode[m])
		check("grid/in_bytes"+in, st.InBytes[m])
		check("grid/in_wire_bytes"+in, st.InWireBytes[m])
	}
	if zero == 0 || nonzero == 0 {
		t.Fatalf("zero cells = %d, nonzero cells = %d: the exchange must exercise both", zero, nonzero)
	}
	// The tunneled echo request arrived In-IE: its wire bytes carry the
	// tunnel header on top of the inner packet.
	if st.InByMode[core.InIE] != 1 || st.InWireBytes[core.InIE] <= st.InBytes[core.InIE] {
		t.Errorf("In-IE pkts=%d bytes=%d wire=%d, want 1 packet with wire > bytes",
			st.InByMode[core.InIE], st.InBytes[core.InIE], st.InWireBytes[core.InIE])
	}
}
