package icmphost

import (
	"testing"

	"mob4x4/internal/icmp"
	"mob4x4/internal/inet"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
)

func twoHosts(t testing.TB) (*inet.Network, *ICMP, *ICMP, ipv4.Addr, ipv4.Addr) {
	t.Helper()
	n := inet.New(1)
	lan := n.AddLAN("lan", "10.0.0.0/24", netsim.SegmentOpts{Latency: 1e6})
	gw := n.AddRouter("gw")
	n.AttachRouter(gw, lan)
	a := n.AddHost("a", lan)
	b := n.AddHost("b", lan)
	n.ComputeRoutes()
	return n, Install(a), Install(b), a.FirstAddr(), b.FirstAddr()
}

func TestEchoResponder(t *testing.T) {
	n, ica, icb, aAddr, bAddr := twoHosts(t)
	var replies []icmp.Message
	ica.OnEchoReply = func(src ipv4.Addr, m icmp.Message) {
		if src != bAddr {
			t.Errorf("reply from %s", src)
		}
		replies = append(replies, m)
	}
	_ = ica.Ping(ipv4.Zero, bAddr, 77, 3, []byte("data"))
	n.RunFor(2e9)
	if len(replies) != 1 {
		t.Fatalf("replies = %d", len(replies))
	}
	if replies[0].ID != 77 || replies[0].Seq != 3 || string(replies[0].Body) != "data" {
		t.Errorf("reply = %+v", replies[0])
	}
	if icb.EchoRequests != 1 || ica.EchoReplies != 1 {
		t.Errorf("counters: req=%d rep=%d", icb.EchoRequests, ica.EchoReplies)
	}
	_ = aAddr
}

func TestResponderDisabled(t *testing.T) {
	n, ica, icb, _, bAddr := twoHosts(t)
	icb.EchoResponder = false
	got := 0
	ica.OnEchoReply = func(ipv4.Addr, icmp.Message) { got++ }
	var sawRequest bool
	icb.OnEchoRequest = func(ipv4.Addr, icmp.Message) { sawRequest = true }
	_ = ica.Ping(ipv4.Zero, bAddr, 1, 1, nil)
	n.RunFor(2e9)
	if got != 0 {
		t.Error("disabled responder replied")
	}
	if !sawRequest {
		t.Error("request callback not invoked")
	}
}

func TestBindingNoticeDispatch(t *testing.T) {
	n, ica, _, aAddr, bAddr := twoHosts(t)
	var gotBinding *icmp.Message
	ica.OnBinding = func(src ipv4.Addr, m icmp.Message) { gotBinding = &m }

	// b sends a binding notice to a.
	notice := icmp.BindingNotice(ipv4.MustParseAddr("36.1.1.3"), ipv4.MustParseAddr("128.9.1.4"), 60)
	bHost := n.Host("b")
	_ = bHost.SendIP(ipv4.Packet{
		Header:  ipv4.Header{Protocol: ipv4.ProtoICMP, Src: bAddr, Dst: aAddr},
		Payload: notice.Marshal(),
	})
	n.RunFor(2e9)
	if gotBinding == nil {
		t.Fatal("binding notice not dispatched")
	}
	if gotBinding.Home != ipv4.MustParseAddr("36.1.1.3") || gotBinding.Lifetime != 60 {
		t.Errorf("binding = %+v", gotBinding)
	}
}

func TestErrorDispatch(t *testing.T) {
	n, ica, _, aAddr, bAddr := twoHosts(t)
	var gotErr *icmp.Message
	ica.OnError = func(src ipv4.Addr, m icmp.Message) { gotErr = &m }
	orig := ipv4.Packet{Header: ipv4.Header{Protocol: 99, TTL: 1, Src: aAddr, Dst: bAddr}}
	msg, err := icmp.TimeExceeded(nil, orig)
	if err != nil {
		t.Fatal(err)
	}
	_ = n.Host("b").SendIP(ipv4.Packet{
		Header:  ipv4.Header{Protocol: ipv4.ProtoICMP, Src: bAddr, Dst: aAddr},
		Payload: msg.Marshal(),
	})
	n.RunFor(2e9)
	if gotErr == nil || gotErr.Type != icmp.TypeTimeExceeded {
		t.Errorf("error dispatch: %+v", gotErr)
	}
}

func TestMalformedICMPIgnored(t *testing.T) {
	n, _, icb, _, bAddr := twoHosts(t)
	a := n.Host("a")
	_ = a.SendIP(ipv4.Packet{
		Header:  ipv4.Header{Protocol: ipv4.ProtoICMP, Dst: bAddr},
		Payload: []byte{8, 0, 0}, // truncated
	})
	n.RunFor(2e9)
	if icb.EchoRequests != 0 {
		t.Error("malformed message counted")
	}
}
