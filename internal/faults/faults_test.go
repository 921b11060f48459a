package faults

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/netsim"
	"mob4x4/internal/stack"
	"mob4x4/internal/vtime"
)

func testPair(t *testing.T) (*netsim.Sim, *netsim.Segment, *netsim.NIC, *netsim.NIC, *int) {
	t.Helper()
	sim := netsim.NewSim(7)
	seg := sim.NewSegment("lan", netsim.SegmentOpts{Latency: 1e6})
	tx := sim.NewNIC("tx")
	rx := sim.NewNIC("rx")
	delivered := 0
	rx.SetReceiver(func(*netsim.NIC, netsim.Frame) { delivered++ })
	tx.Attach(seg)
	rx.Attach(seg)
	return sim, seg, tx, rx, &delivered
}

func send(tx, rx *netsim.NIC, payload []byte) {
	buf := netsim.GetBuf()
	buf.B = append(buf.B, payload...)
	tx.Send(netsim.Frame{Dst: rx.MAC(), Type: netsim.EtherTypeIPv4, Payload: buf.B, Buf: buf})
}

func TestInjectorLogAndTrace(t *testing.T) {
	sim := netsim.NewSim(1)
	log, stop := sim.Trace.Capture()
	defer stop()
	inj := NewInjector(sim)
	fired := 0
	inj.At(5e9, "first fault", func() { fired++ })
	inj.At(2e9, "earlier fault", func() { fired++ })
	inj.At(9e9, "logged without action", nil)
	sim.Sched.Run()

	want := []string{
		"2000000000 earlier fault",
		"5000000000 first fault",
		"9000000000 logged without action",
	}
	if !reflect.DeepEqual(inj.Log(), want) {
		t.Errorf("Log() = %q, want %q", inj.Log(), want)
	}
	if fired != 2 {
		t.Errorf("fired %d actions, want 2", fired)
	}
	var notes []string
	for _, e := range *log {
		if e.Kind == netsim.EventNote && e.Where == "faults" {
			notes = append(notes, fmt.Sprintf("%d %s", int64(e.Time), e.Detail))
		}
	}
	if !reflect.DeepEqual(notes, want) {
		t.Errorf("traced notes = %q, want %q", notes, want)
	}
	if got := inj.LogText(); !strings.HasSuffix(got, "\n") || strings.Count(got, "\n") != 3 {
		t.Errorf("LogText() = %q, want 3 newline-terminated lines", got)
	}
}

func TestGilbertElliottBadStateDropsEverything(t *testing.T) {
	sim, seg, tx, rx, delivered := testPair(t)
	// First frame clocks the chain into the bad state and stays there.
	lf := ImpairLink(sim, seg, LinkFaultOpts{PGoodBad: 1, PBadGood: 0, BadLoss: 1})
	for k := 0; k < 10; k++ {
		send(tx, rx, []byte{byte(k)})
	}
	sim.Sched.Run()
	if *delivered != 0 {
		t.Errorf("delivered %d frames through a 100%%-loss bad state", *delivered)
	}
	var total uint64
	for c := 0; c < metrics.NumDropCauses; c++ {
		total += sim.Metrics.DropCount(metrics.DropCause(c))
	}
	if got := sim.Metrics.DropCount(metrics.DropGilbertElliott); got != 10 || total != 10 {
		t.Errorf("gilbert_elliott drops = %d, all drops = %d, want 10/10", got, total)
	}
	if !lf.InBadState() {
		t.Error("chain should be pinned in the bad state")
	}

	lf.Remove()
	send(tx, rx, []byte("healed"))
	sim.Sched.Run()
	if *delivered != 1 {
		t.Errorf("delivered %d after Remove, want 1 (clean path restored)", *delivered)
	}
}

func TestGilbertElliottGoodStateIsClean(t *testing.T) {
	sim, seg, tx, rx, delivered := testPair(t)
	// No transitions, no good-state loss: pure pass-through.
	ImpairLink(sim, seg, LinkFaultOpts{BadLoss: 1})
	for k := 0; k < 10; k++ {
		send(tx, rx, []byte{byte(k)})
	}
	sim.Sched.Run()
	if *delivered != 10 {
		t.Errorf("delivered %d frames, want all 10 in the good state", *delivered)
	}
}

// TestLossRate: a Gilbert-Elliott chain with no transitions is uniform
// loss at GoodLoss, and every frame is either delivered or counted once
// under drop/gilbert_elliott.
func TestLossRate(t *testing.T) {
	sim, seg, tx, rx, delivered := testPair(t)
	ImpairLink(sim, seg, LinkFaultOpts{GoodLoss: 0.5})
	const n = 2000
	for k := 0; k < n; k++ {
		send(tx, rx, []byte{byte(k)})
	}
	sim.Sched.Run()
	if *delivered < n*4/10 || *delivered > n*6/10 {
		t.Errorf("50%% loss delivered %d/%d", *delivered, n)
	}
	if drops := sim.Metrics.DropCount(metrics.DropGilbertElliott); drops+uint64(*delivered) != n {
		t.Errorf("drops (%d) + delivered (%d) != sent (%d)", drops, *delivered, n)
	}
}

// TestJitterReordersFrames: holding every frame back by a random extra
// delay lets later frames overtake earlier ones.
func TestJitterReordersFrames(t *testing.T) {
	sim, seg, tx, rx, _ := testPair(t)
	var order []byte
	rx.SetReceiver(func(_ *netsim.NIC, f netsim.Frame) { order = append(order, f.Payload[0]) })
	lf := ImpairLink(sim, seg, LinkFaultOpts{ReorderRate: 1, ReorderMax: 20e6})
	for k := 0; k < 50; k++ {
		send(tx, rx, []byte{byte(k)})
	}
	sim.Sched.Run()
	if len(order) != 50 {
		t.Fatalf("delivered %d/50", len(order))
	}
	inOrder := true
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Error("50 frames under heavy jitter arrived perfectly ordered; reordering not happening")
	}
	if lf.Reorders == 0 {
		t.Error("no reorders counted")
	}
}

// chaoticCounts runs one impaired burst and returns the impairment
// counters — used to pin seed-determinism.
func chaoticCounts(seed int64) [4]uint64 {
	sim := netsim.NewSim(seed)
	seg := sim.NewSegment("lan", netsim.SegmentOpts{Latency: 1e6})
	tx := sim.NewNIC("tx")
	rx := sim.NewNIC("rx")
	rx.SetReceiver(func(*netsim.NIC, netsim.Frame) {})
	tx.Attach(seg)
	rx.Attach(seg)
	lf := ImpairLink(sim, seg, LinkFaultOpts{
		PGoodBad: 0.2, PBadGood: 0.5, GoodLoss: 0.05, BadLoss: 0.6,
		DupRate: 0.1, CorruptRate: 0.1, ReorderRate: 0.2, ReorderMax: 5e6,
	})
	for k := 0; k < 200; k++ {
		send(tx, rx, []byte{byte(k), byte(k >> 8)})
	}
	sim.Sched.Run()
	return [4]uint64{sim.Metrics.DropCount(metrics.DropGilbertElliott), lf.Dups, lf.Corrupts, lf.Reorders}
}

func TestLinkFaultDeterministicPerSeed(t *testing.T) {
	a := chaoticCounts(42)
	b := chaoticCounts(42)
	if a != b {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
	if a == ([4]uint64{}) {
		t.Error("no impairments fired; parameters too weak to exercise anything")
	}
	if c := chaoticCounts(43); c == a {
		t.Error("different seeds produced identical counters (RNG not wired?)")
	}
}

func ipv4Frame(src ipv4.Addr) []byte {
	p := make([]byte, 28) // minimal header + 8 payload bytes
	p[0] = 0x45
	copy(p[12:16], src[:])
	return p
}

func TestBlackholeSourceMatchesOnlyThatSource(t *testing.T) {
	sim, seg, tx, rx, delivered := testPair(t)
	victim := ipv4.MustParseAddr("128.9.1.50")
	other := ipv4.MustParseAddr("36.1.1.2")
	bh := BlackholeSource(seg, victim)

	send(tx, rx, ipv4Frame(victim))
	send(tx, rx, ipv4Frame(other))
	send(tx, rx, ipv4Frame(victim))
	sim.Sched.Run()

	if *delivered != 1 {
		t.Errorf("delivered %d frames, want 1 (only the innocent source)", *delivered)
	}
	if got := sim.Metrics.DropCount(metrics.DropBlackhole); got != 2 {
		t.Errorf("blackhole drops = %d, want 2", got)
	}

	bh.Remove()
	send(tx, rx, ipv4Frame(victim))
	sim.Sched.Run()
	if *delivered != 2 {
		t.Error("victim still filtered after Remove")
	}
}

func TestBlackholeIgnoresNonIPv4(t *testing.T) {
	sim, seg, tx, rx, delivered := testPair(t)
	victim := ipv4.MustParseAddr("128.9.1.50")
	BlackholeSource(seg, victim)
	buf := netsim.GetBuf()
	buf.B = append(buf.B, ipv4Frame(victim)...)
	tx.Send(netsim.Frame{Dst: rx.MAC(), Type: netsim.EtherTypeARP, Payload: buf.B, Buf: buf})
	sim.Sched.Run()
	if *delivered != 1 {
		t.Errorf("ARP frame filtered by IPv4 blackhole (delivered=%d)", *delivered)
	}
}

func TestCutLinkWindow(t *testing.T) {
	sim, seg, tx, rx, delivered := testPair(t)
	inj := NewInjector(sim)
	inj.CutLink(1e9, seg, 2e9) // down over [1s, 3s)

	for _, at := range []vtime.Time{5e8, 2e9, 4e9} {
		sim.Sched.At(at, func() { send(tx, rx, []byte("probe")) })
	}
	sim.Sched.Run()

	if *delivered != 2 {
		t.Errorf("delivered %d probes, want 2 (before and after the window)", *delivered)
	}
	if n := sim.Metrics.DropCount(metrics.DropDown); n != 1 {
		t.Errorf("drop/down = %d, want 1 (the mid-window probe)", n)
	}
	if seg.Down() {
		t.Error("segment still down after heal")
	}
	if len(inj.Log()) != 2 {
		t.Errorf("fault log has %d entries, want cut+heal", len(inj.Log()))
	}
}

func TestFlapLinkCycles(t *testing.T) {
	sim, seg, _, _, _ := testPair(t)
	inj := NewInjector(sim)
	inj.FlapLink(1e9, seg, 1e9, 1e9, 3)
	sim.Sched.Run()
	if got := len(inj.Log()); got != 6 {
		t.Errorf("fault log has %d entries, want 6 (3 cut/heal pairs)", got)
	}
	if seg.Down() {
		t.Error("segment left down after final flap")
	}
}

func TestBounceInterfaceReattachesAndFiresOnUp(t *testing.T) {
	sim := netsim.NewSim(3)
	seg := sim.NewSegment("lan", netsim.SegmentOpts{})
	h := stack.NewHost(sim, "mh")
	ifc := h.AddIface("eth0", seg, ipv4.MustParseAddr("10.0.0.1"), ipv4.MustParsePrefix("10.0.0.0/24"))

	inj := NewInjector(sim)
	upFired := false
	inj.BounceInterface(1e9, ifc, 5e8, func() { upFired = true })

	sim.Sched.RunUntil(12e8) // mid-outage
	if ifc.NIC().Attached() {
		t.Error("interface still attached mid-bounce")
	}
	sim.Sched.Run()
	if !upFired {
		t.Error("onUp callback never fired")
	}
	if ifc.NIC().Segment() != seg {
		t.Error("interface not reattached to its original segment")
	}
}
