package netsim

import (
	"reflect"
	"testing"

	"mob4x4/internal/metrics"
)

func TestUnicastDelivery(t *testing.T) {
	sim := NewSim(1)
	seg := sim.NewSegment("lan", SegmentOpts{Latency: 1e6})
	a := sim.NewNIC("a")
	b := sim.NewNIC("b")
	c := sim.NewNIC("c")
	var bGot, cGot []Frame
	b.SetReceiver(func(_ *NIC, f Frame) { bGot = append(bGot, f) })
	c.SetReceiver(func(_ *NIC, f Frame) { cGot = append(cGot, f) })
	a.Attach(seg)
	b.Attach(seg)
	c.Attach(seg)

	a.Send(Frame{Dst: b.MAC(), Type: EtherTypeIPv4, Payload: []byte("hi")})
	sim.Sched.Run()

	if len(bGot) != 1 || string(bGot[0].Payload) != "hi" {
		t.Errorf("b got %v", bGot)
	}
	if bGot[0].Src != a.MAC() {
		t.Errorf("frame src = %v, want %v", bGot[0].Src, a.MAC())
	}
	if len(cGot) != 0 {
		t.Errorf("c overheard unicast: %v", cGot)
	}
	if sim.Now() != 1e6 {
		t.Errorf("delivery time %v, want 1ms", sim.Now())
	}
}

func TestBroadcastDelivery(t *testing.T) {
	sim := NewSim(1)
	seg := sim.NewSegment("lan", SegmentOpts{})
	nics := make([]*NIC, 4)
	got := make([]int, 4)
	for i := range nics {
		i := i
		nics[i] = sim.NewNIC("n")
		nics[i].SetReceiver(func(_ *NIC, f Frame) { got[i]++ })
		nics[i].Attach(seg)
	}
	nics[0].Send(Frame{Dst: BroadcastMAC, Type: EtherTypeARP})
	sim.Sched.Run()
	if got[0] != 0 {
		t.Error("sender received its own broadcast")
	}
	for i := 1; i < 4; i++ {
		if got[i] != 1 {
			t.Errorf("nic %d got %d frames", i, got[i])
		}
	}
}

func TestPromiscuousReceivesAll(t *testing.T) {
	sim := NewSim(1)
	seg := sim.NewSegment("lan", SegmentOpts{})
	a := sim.NewNIC("a")
	b := sim.NewNIC("b")
	snoop := sim.NewNIC("snoop")
	snoop.SetPromiscuous(true)
	var snooped int
	snoop.SetReceiver(func(_ *NIC, f Frame) { snooped++ })
	b.SetReceiver(func(_ *NIC, f Frame) {})
	a.Attach(seg)
	b.Attach(seg)
	snoop.Attach(seg)

	a.Send(Frame{Dst: b.MAC(), Type: EtherTypeIPv4})
	sim.Sched.Run()
	if snooped != 1 {
		t.Errorf("promiscuous nic saw %d frames", snooped)
	}
}

func TestMTUDrop(t *testing.T) {
	sim := NewSim(1)
	seg := sim.NewSegment("lan", SegmentOpts{MTU: 100})
	a := sim.NewNIC("a")
	b := sim.NewNIC("b")
	var got int
	b.SetReceiver(func(_ *NIC, f Frame) { got++ })
	a.Attach(seg)
	b.Attach(seg)

	log, stop := sim.Trace.Capture()
	a.Send(Frame{Dst: b.MAC(), Payload: make([]byte, 101)})
	a.Send(Frame{Dst: b.MAC(), Payload: make([]byte, 100)})
	sim.Sched.Run()
	stop()
	if got != 1 {
		t.Errorf("got %d frames, want 1", got)
	}
	if n := sim.Metrics.DropCount(metrics.DropMTU); n != 1 {
		t.Errorf("drop/mtu = %d, want 1", n)
	}
	if len(*log) != 1 {
		t.Fatalf("captured %d events, want 1: %v", len(*log), *log)
	}
	if e := (*log)[0]; e.Kind != EventDropMTU || e.Where != "lan" || e.Detail != "payload 101 > mtu 100" {
		t.Errorf("MTU drop event = %+v", e)
	} else if s := e.String(); s != "        0s drop-mtu     lan            payload 101 > mtu 100" {
		t.Errorf("String() = %q", s)
	}
}

func TestDetachedSendDropped(t *testing.T) {
	sim := NewSim(1)
	a := sim.NewNIC("a")
	a.Send(Frame{Dst: BroadcastMAC}) // no segment: silently dropped
	sim.Sched.Run()
	if a.TxFrames != 0 {
		t.Error("detached send counted as transmitted")
	}
}

func TestDetachMidFlight(t *testing.T) {
	sim := NewSim(1)
	seg := sim.NewSegment("lan", SegmentOpts{Latency: 10e6})
	a := sim.NewNIC("a")
	b := sim.NewNIC("b")
	var got int
	b.SetReceiver(func(_ *NIC, f Frame) { got++ })
	a.Attach(seg)
	b.Attach(seg)
	a.Send(Frame{Dst: b.MAC()})
	// b detaches before the frame lands.
	sim.Sched.After(5e6, func() { b.Detach() })
	sim.Sched.Run()
	if got != 0 {
		t.Error("frame delivered to detached NIC")
	}
}

func TestMoveBetweenSegments(t *testing.T) {
	sim := NewSim(1)
	s1 := sim.NewSegment("s1", SegmentOpts{})
	s2 := sim.NewSegment("s2", SegmentOpts{})
	mobile := sim.NewNIC("mobile")
	var got []string
	mobile.SetReceiver(func(_ *NIC, f Frame) { got = append(got, string(f.Payload)) })
	peer1 := sim.NewNIC("p1")
	peer2 := sim.NewNIC("p2")
	peer1.Attach(s1)
	peer2.Attach(s2)

	mobile.Attach(s1)
	peer1.Send(Frame{Dst: mobile.MAC(), Payload: []byte("one")})
	sim.Sched.Run()
	mobile.Attach(s2) // implicit detach from s1
	peer1.Send(Frame{Dst: mobile.MAC(), Payload: []byte("lost")})
	peer2.Send(Frame{Dst: mobile.MAC(), Payload: []byte("two")})
	sim.Sched.Run()

	if len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Errorf("got %v", got)
	}
	if len(s1.NICs()) != 1 {
		t.Errorf("s1 still has %d nics", len(s1.NICs()))
	}
}

func TestMACString(t *testing.T) {
	if BroadcastMAC.String() != "ff:ff:ff:ff:ff:ff" {
		t.Errorf("broadcast MAC = %s", BroadcastMAC)
	}
	m := MAC(0x020000000001)
	if m.String() != "02:00:00:00:00:01" {
		t.Errorf("MAC = %s", m)
	}
}

func TestAllocMACUnique(t *testing.T) {
	sim := NewSim(1)
	seen := map[MAC]bool{}
	for i := 0; i < 1000; i++ {
		m := sim.AllocMAC()
		if seen[m] {
			t.Fatalf("duplicate MAC %v", m)
		}
		seen[m] = true
	}
}

func TestTracerPathAndHops(t *testing.T) {
	tr := NewTracer()
	log, stop := tr.Capture()
	id := tr.NextPacketID()
	tr.Record(Event{Kind: EventSend, Time: 10, Where: "a", PktID: id})
	tr.Record(Event{Kind: EventForward, Time: 15, Where: "r1", PktID: id})
	tr.Record(Event{Kind: EventForward, Time: 20, Where: "r2", PktID: id})
	tr.Record(Event{Kind: EventDeliver, Time: 35, Where: "b", PktID: id})
	other := tr.NextPacketID()
	tr.Record(Event{Kind: EventForward, Where: "rX", PktID: other})
	tunneled := tr.NextPacketID()
	for _, e := range []Event{
		{Kind: EventSend, Where: "ch"}, {Kind: EventEncap, Where: "ha"},
		{Kind: EventDecap, Where: "mh"}, {Kind: EventDropTTL, Where: "r9"},
	} {
		e.PktID = tunneled
		tr.Record(e)
	}
	stop()

	if got := log.Hops(id); got != 2 {
		t.Errorf("Hops = %d", got)
	}
	if got := log.Path(id); got != "a -> r1 -> r2 -> b" {
		t.Errorf("Path = %q", got)
	}
	if got := log.Path(tunneled); got != "ch -> ha[encap] -> mh[decap] -> X(drop-ttl@r9)" {
		t.Errorf("tunneled Path = %q", got)
	}
	if got := log.Send("a", 0); got != id {
		t.Errorf("Send(a, 0) = %d, want %d", got, id)
	}
	if got := log.Send("ch", id); got != tunneled {
		t.Errorf("Send(ch, %d) = %d, want %d", id, got, tunneled)
	}
	if got := log.Send("a", id); got != 0 {
		t.Errorf("Send(a, %d) = %d, want 0", id, got)
	}
	if d, to := log.Transit(id); d != 25 || to != "b" {
		t.Errorf("Transit = %v, %q; want 25ns, b", d, to)
	}
	if d, to := log.Transit(tunneled); d != 0 || to != "" {
		t.Errorf("undelivered Transit = %v, %q", d, to)
	}
	if got := countKind(*log, EventForward); got != 3 {
		t.Errorf("forward events = %d", got)
	}
}

// TestTracerOffByDefault pins the zero-cost default: a fresh tracer has
// no hook, and Record without one is a no-op.
func TestTracerOffByDefault(t *testing.T) {
	tr := NewTracer()
	if tr.On() {
		t.Fatal("new tracer has a hook installed")
	}
	tr.Record(Event{Kind: EventDropFilter, Where: "gw"}) // must not panic
}

// TestCaptureWindowsNest pins the nesting contract: an inner window sees
// only its own events, the outer one sees everything, and each stop
// restores the hook that was installed before its window opened.
func TestCaptureWindowsNest(t *testing.T) {
	tr := NewTracer()
	outer, stopOuter := tr.Capture()
	tr.Record(Event{Kind: EventNote, Detail: "before"})
	inner, stopInner := tr.Capture()
	tr.Record(Event{Kind: EventNote, Detail: "during"})
	stopInner()
	tr.Record(Event{Kind: EventNote, Detail: "after"})
	if !tr.On() {
		t.Fatal("closing the inner window removed the outer hook")
	}
	stopOuter()
	if tr.On() {
		t.Fatal("closing the outer window left a hook installed")
	}
	tr.Record(Event{Kind: EventNote, Detail: "outside"})

	details := func(l Log) (out []string) {
		for _, e := range l {
			out = append(out, e.Detail)
		}
		return out
	}
	if got := details(*inner); !reflect.DeepEqual(got, []string{"during"}) {
		t.Errorf("inner window = %q", got)
	}
	if got := details(*outer); !reflect.DeepEqual(got, []string{"before", "during", "after"}) {
		t.Errorf("outer window = %q", got)
	}

	_, _ = tr.Capture()
	tr.Discard()
	if tr.On() {
		t.Error("Discard left a hook installed")
	}
}

// countKind counts the events of one kind in a capture.
func countKind(l Log, kind EventKind) int {
	n := 0
	for _, e := range l {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EventSend, EventForward, EventDeliver, EventDropFilter,
		EventDropTTL, EventDropNoRoute, EventDropMTU,
		EventEncap, EventDecap, EventMove, EventRegister, EventNote}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d string %q empty or duplicate", k, s)
		}
		seen[s] = true
	}
	if EventKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func BenchmarkSegmentThroughput(b *testing.B) {
	sim := NewSim(1)
	seg := sim.NewSegment("lan", SegmentOpts{})
	a := sim.NewNIC("a")
	dst := sim.NewNIC("b")
	dst.SetReceiver(func(_ *NIC, f Frame) {})
	a.Attach(seg)
	dst.Attach(seg)
	payload := make([]byte, 1400)
	b.SetBytes(1400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Send(Frame{Dst: dst.MAC(), Payload: payload})
		if i%256 == 255 {
			sim.Sched.Run()
		}
	}
	sim.Sched.Run()
}

func TestBandwidthSerializationDelay(t *testing.T) {
	sim := NewSim(1)
	// 1 Mbit/s, zero propagation latency: a 1250-byte wire frame takes
	// exactly 10ms+ to serialize ((1250+14)*8 us ≈ 10.1ms).
	seg := sim.NewSegment("slow", SegmentOpts{BandwidthBps: 1_000_000})
	a := sim.NewNIC("a")
	b := sim.NewNIC("b")
	var arrivals []int64
	b.SetReceiver(func(_ *NIC, f Frame) { arrivals = append(arrivals, int64(sim.Now())) })
	a.Attach(seg)
	b.Attach(seg)

	a.Send(Frame{Dst: b.MAC(), Payload: make([]byte, 1236)}) // 1250B on the wire
	a.Send(Frame{Dst: b.MAC(), Payload: make([]byte, 1236)})
	sim.Sched.Run()

	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	txNs := int64(1250 * 8 * 1000) // 10ms in ns
	if arrivals[0] != txNs {
		t.Errorf("first arrival at %d ns, want %d", arrivals[0], txNs)
	}
	// The second frame queued behind the first: twice the serialization.
	if arrivals[1] != 2*txNs {
		t.Errorf("second arrival at %d ns, want %d (queued)", arrivals[1], 2*txNs)
	}
}

func TestInfiniteBandwidthUnchanged(t *testing.T) {
	sim := NewSim(1)
	seg := sim.NewSegment("fast", SegmentOpts{Latency: 5e6})
	a := sim.NewNIC("a")
	b := sim.NewNIC("b")
	var when []int64
	b.SetReceiver(func(_ *NIC, f Frame) { when = append(when, int64(sim.Now())) })
	a.Attach(seg)
	b.Attach(seg)
	a.Send(Frame{Dst: b.MAC(), Payload: make([]byte, 1400)})
	a.Send(Frame{Dst: b.MAC(), Payload: make([]byte, 1400)})
	sim.Sched.Run()
	if len(when) != 2 || when[0] != 5e6 || when[1] != 5e6 {
		t.Errorf("arrivals = %v, want both at 5ms (no serialization)", when)
	}
}
