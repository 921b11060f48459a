package routeopt

import (
	"testing"

	"mob4x4/internal/inet"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/mobileip"
	"mob4x4/internal/netsim"
	"mob4x4/internal/race"
	"mob4x4/internal/udp"
)

// testPusher builds a pusher wired to a minimal two-host LAN: enough
// stack for real sends without the full mobility topology.
func testPusher(tb testing.TB, auth *mobileip.Authenticator) (*pusher, *inet.Network) {
	tb.Helper()
	net := inet.New(7)
	lan := net.AddLAN("lan", "36.1.0.0/16", netsim.SegmentOpts{Latency: 1e6})
	mh := net.AddHost("mh", lan)
	net.AddHost("peer", lan)
	net.ComputeRoutes()

	sock, err := mh.OpenUDP(ipv4.Zero, 0, func(ipv4.Addr, uint16, ipv4.Addr, []byte) {})
	if err != nil {
		tb.Fatal(err)
	}
	src := mh.FirstAddr()
	p := newPusher(mh, sock, lan.Prefix.Host(100), auth, &PushStats{},
		func() ipv4.Addr { return src })
	return p, net
}

func addr(last byte) ipv4.Addr { return ipv4.Addr{17, 5, 0, last} }

func TestNotePeerEvictionIsDeterministic(t *testing.T) {
	p, _ := testPusher(t, nil)
	p.slots = make([]pushSlot, 0, 2) // a two-peer table
	a, b, c, d, e := addr(1), addr(2), addr(3), addr(4), addr(5)

	p.notePeer(a)
	p.notePeer(b)
	if p.activePeers() != 2 || p.stats.PeersTracked != 2 {
		t.Fatalf("active=%d tracked=%d, want 2/2", p.activePeers(), p.stats.PeersTracked)
	}
	// Re-noting an existing peer refreshes, never re-installs.
	p.notePeer(a)
	if p.stats.PeersTracked != 2 {
		t.Fatalf("refresh re-installed: tracked=%d", p.stats.PeersTracked)
	}

	// LRU eviction: the least-recently-active slot loses.
	p.slots[0].lastActive = 10
	p.slots[1].lastActive = 5
	p.notePeer(c)
	if p.slots[1].peer != c || p.slots[0].peer != a {
		t.Fatalf("evicted wrong slot: [%s %s], want [a c]", p.slots[0].peer, p.slots[1].peer)
	}

	// Ties break on the lowest index — deterministic across runs.
	p.slots[0].lastActive = 7
	p.slots[1].lastActive = 7
	p.notePeer(d)
	if p.slots[0].peer != d {
		t.Fatalf("tie evicted slot holding %s, want slot 0", p.slots[0].peer)
	}

	// An inactive slot is reused before anyone is evicted.
	p.slots[1].active = false
	p.notePeer(e)
	if p.slots[1].peer != e || p.slots[0].peer != d {
		t.Fatalf("inactive slot not reused: [%s %s]", p.slots[0].peer, p.slots[1].peer)
	}
}

func TestPusherQuiesceAndRehome(t *testing.T) {
	p, net := testPusher(t, nil)
	p.notePeer(addr(9))
	p.push(addr(40))
	if !p.slots[0].awaiting || p.slots[0].timer == nil {
		t.Fatal("push did not arm the slot")
	}
	p.quiesce()
	if p.slots[0].awaiting {
		t.Error("quiesce left a slot awaiting")
	}
	net.RunFor(5e9) // any stray timer firing is a no-op on a quiesced slot
	if p.stats.Retransmits != 0 || p.stats.Abandons != 0 {
		t.Errorf("quiesced slot retried: retransmits=%d abandons=%d",
			p.stats.Retransmits, p.stats.Abandons)
	}
	// After a migration the next send re-arms the same handle on the
	// scheduler the host runs on now.
	tm := p.slots[0].timer
	p.sendUpdate(0, 20, false)
	if p.slots[0].timer != tm || !tm.Pending() {
		t.Error("send after quiesce did not re-arm the slot's timer")
	}
}

// TestUpdateSendAllocs pins the binding-update send path at zero
// allocations per update beyond the raw UDP transmit. The wire image is
// built in a pooled buffer, the HMAC state is preallocated by the
// Authenticator, and the retry timer is reused via Reset — so
// everything this package adds (marshal, authenticate, slot
// bookkeeping, timer arm) must contribute nothing. The baseline is an
// identical datagram pushed through the same socket: the stack's
// per-frame transit cost (scheduler event, queued frame clone) is
// shared by every protocol in the repo and is pinned by netsim's own
// suite, not here. Under the race detector sync.Pool drops items at
// random, so only the timer pin, which touches no pool, runs there.
func TestUpdateSendAllocs(t *testing.T) {
	p, net := testPusher(t, mobileip.NewAuthenticator(0x524f, []byte("alloc-pin-key-0123456789abcdef00")))
	p.notePeer(addr(50))
	p.careOf = addr(40)
	for i := 0; i < 300; i++ {
		p.sendUpdate(0, 20, true) // warm pools, queue capacity, ARP
	}
	net.RunFor(30e9)
	if avg := testing.AllocsPerRun(200, func() { p.armRetry(0) }); avg != 0 {
		t.Errorf("retry-timer arm allocates %.3f objects/op, want 0", avg)
	}
	if race.Enabled {
		return
	}

	// Baseline: the same wire bytes through the same socket, no pusher.
	img := BindingUpdate{Lifetime: 20, Home: p.home, CareOf: p.careOf, ID: 1}
	src, peer := p.srcAddr(), p.slots[0].peer
	base := testing.AllocsPerRun(200, func() {
		buf := netsim.GetBuf()
		b := img.AppendMarshal(buf.B)
		b = p.auth.AppendAuth(b)
		_ = p.sock.SendToFrom(src, peer, udp.PortBindingUpdate, b)
		netsim.PutBuf(buf)
	})
	full := testing.AllocsPerRun(200, func() { p.sendUpdate(0, 20, true) })
	if full > base+0.1 {
		t.Errorf("binding-update send allocates %.3f objects/op over the %.3f transmit baseline, want 0",
			full-base, base)
	}
	// The routeopt-owned halves are individually allocation-free.
	if avg := testing.AllocsPerRun(200, func() {
		buf := netsim.GetBuf()
		b := img.AppendMarshal(buf.B)
		_ = p.auth.AppendAuth(b)
		netsim.PutBuf(buf)
	}); avg != 0 {
		t.Errorf("marshal+authenticate allocates %.3f objects/op, want 0", avg)
	}
}

func TestPushSkipsInactiveSlots(t *testing.T) {
	p, _ := testPusher(t, nil)
	p.notePeer(addr(1))
	p.notePeer(addr(2))
	p.slots[0].active = false
	p.push(addr(40))
	if p.stats.UpdatesSent != 1 {
		t.Fatalf("sent %d updates with one inactive slot, want 1", p.stats.UpdatesSent)
	}
	if !p.slots[1].awaiting || p.slots[0].awaiting {
		t.Error("wrong slot armed")
	}
}

// TestForgedAckIgnored: under an association, an unauthenticated (or
// mismatched) ack must not stop retransmission — a forged nack would
// otherwise silently sever the push channel.
func TestForgedAckIgnored(t *testing.T) {
	auth := mobileip.NewAuthenticator(0x524f, []byte("forged-ack-key-0123456789abcdef0"))
	p, _ := testPusher(t, auth)
	p.notePeer(addr(1))
	p.push(addr(40))
	id := p.slots[0].awaitingID

	forged := BindingAck{Code: AckDeniedAuthFailed, Home: p.home, ID: id}
	p.handleAck(addr(1), forged, false, forged.Marshal())
	if !p.slots[0].awaiting || !p.slots[0].active {
		t.Fatal("unauthenticated nack stopped the push")
	}
	if p.stats.Nacks != 0 {
		t.Fatalf("nacks = %d", p.stats.Nacks)
	}

	// A properly signed ack from the wrong peer, or with a stale ID,
	// matches no slot and is ignored.
	ok := BindingAck{Code: AckAccepted, Home: p.home, ID: id}
	p.handleAck(addr(9), ok, true, auth.AppendAuth(ok.Marshal()))
	stale := BindingAck{Code: AckAccepted, Home: p.home, ID: id - 1}
	p.handleAck(addr(1), stale, true, auth.AppendAuth(stale.Marshal()))
	if !p.slots[0].awaiting || p.stats.Acks != 0 {
		t.Fatal("mismatched ack matched a slot")
	}

	// The genuine ack lands.
	p.handleAck(addr(1), ok, true, auth.AppendAuth(ok.Marshal()))
	if p.slots[0].awaiting || p.stats.Acks != 1 {
		t.Fatalf("genuine ack not processed: awaiting=%v acks=%d", p.slots[0].awaiting, p.stats.Acks)
	}
}

func TestOnRetryAfterResolutionIsNoop(t *testing.T) {
	p, _ := testPusher(t, nil)
	p.notePeer(addr(1))
	p.push(addr(40))
	p.slots[0].awaiting = false // ack landed; a straggler timer fires anyway
	p.onRetry(0)
	if p.stats.Retransmits != 0 || p.stats.Abandons != 0 {
		t.Fatalf("resolved slot retried: %+v", *p.stats)
	}
}
