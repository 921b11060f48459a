package mobileip_test

import (
	"testing"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/mobileip"
)

// The mobility security association every auth-enabled world test
// shares: buildWorld provisions it at the HA and hands the matching
// authenticator to the mobile node.
const testSPI uint32 = 0x4d4e_0001

var testKey = []byte("mob4x4-test-key-0123456789abcdef")

func TestAuthenticatedRoamRegisters(t *testing.T) {
	w := buildWorld(t, worldOpts{auth: true})
	w.roam(t)
	if w.ha.Stats.AuthBadMAC+w.ha.Stats.AuthReplays+w.ha.Stats.AuthStale != 0 {
		t.Errorf("clean authenticated roam tripped auth rejects: %+v", w.ha.Stats)
	}
	// A second move is the renewal shape: new care-of, fresh ID, same key.
	careOf2 := w.visitLAN.NextAddr()
	w.mn.MoveTo(w.visitLAN.Seg, careOf2, w.visitLAN.Prefix, w.visitLAN.Gateway)
	w.net.RunFor(2e9)
	if got, ok := w.ha.CareOf(w.mn.Home()); !ok || got != careOf2 {
		t.Fatalf("re-registration under auth: binding = %v,%v; want %s", got, ok, careOf2)
	}
}

// TestUnsignedRegistrationDenied: once a key is provisioned for a home,
// a bare (legacy) registration for it must be refused — this is the
// binding-thief attack at unit scale.
func TestUnsignedRegistrationDenied(t *testing.T) {
	w := buildWorld(t, worldOpts{auth: true})
	careOf := w.roam(t)

	req := mobileip.Request{
		Lifetime:  300,
		Home:      w.mn.Home(),
		HomeAgent: w.haHost.FirstAddr(),
		CareOf:    w.chFar.FirstAddr(), // hijack attempt
		ID:        1 << 40,             // beats any vtime-derived ID
	}
	sock, err := w.chFar.OpenUDP(ipv4.Zero, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = sock.SendTo(w.haHost.FirstAddr(), 434, req.Marshal())
	w.net.RunFor(2e9)

	if got, _ := w.ha.CareOf(w.mn.Home()); got != careOf {
		t.Errorf("binding hijacked by unsigned request: %s", got)
	}
	if w.ha.Stats.AuthBadMAC != 1 {
		t.Errorf("AuthBadMAC = %d, want 1", w.ha.Stats.AuthBadMAC)
	}
}

// TestWrongKeyAndWrongSPIDenied: a signature under the wrong key, or the
// right key under the wrong SPI, is exactly as dead as no signature.
func TestWrongKeyAndWrongSPIDenied(t *testing.T) {
	w := buildWorld(t, worldOpts{auth: true})
	careOf := w.roam(t)

	sock, err := w.chFar.OpenUDP(ipv4.Zero, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := mobileip.Request{
		Lifetime:  300,
		Home:      w.mn.Home(),
		HomeAgent: w.haHost.FirstAddr(),
		CareOf:    w.chFar.FirstAddr(),
		ID:        1 << 40,
	}
	wrongKey := mobileip.NewAuthenticator(testSPI, []byte("not-the-provisioned-key-at-all!!"))
	wrongSPI := mobileip.NewAuthenticator(testSPI+1, testKey)
	_ = sock.SendTo(w.haHost.FirstAddr(), 434, wrongKey.AppendAuth(req.Marshal()))
	_ = sock.SendTo(w.haHost.FirstAddr(), 434, wrongSPI.AppendAuth(req.Marshal()))
	w.net.RunFor(2e9)

	if got, _ := w.ha.CareOf(w.mn.Home()); got != careOf {
		t.Errorf("binding hijacked by mis-keyed request: %s", got)
	}
	if w.ha.Stats.AuthBadMAC != 2 {
		t.Errorf("AuthBadMAC = %d, want 2", w.ha.Stats.AuthBadMAC)
	}
}

// TestAuthReplayAndStaleDenied drives the HA's sliding window directly:
// a phantom home (provisioned key, no mobile node) registers once, then
// sees the same bytes again (replay) and an identification 100 behind
// (stale). Each rejection lands on its own counter.
func TestAuthReplayAndStaleDenied(t *testing.T) {
	w := buildWorld(t, worldOpts{})
	phantom := w.homeLAN.Prefix.Host(77)
	w.ha.Keys().Provision(phantom, testSPI, testKey)
	auth := mobileip.NewAuthenticator(testSPI, testKey)

	sock, err := w.chFar.OpenUDP(ipv4.Zero, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := mobileip.Request{
		Lifetime:  300,
		Home:      phantom,
		HomeAgent: w.haHost.FirstAddr(),
		CareOf:    w.chFar.FirstAddr(),
		ID:        1000,
	}
	signed := auth.AppendAuth(req.Marshal())
	_ = sock.SendTo(w.haHost.FirstAddr(), 434, signed)
	w.net.RunFor(1e9)
	if got, ok := w.ha.CareOf(phantom); !ok || got != req.CareOf {
		t.Fatalf("signed registration refused: binding = %v,%v", got, ok)
	}

	// Exact replay: same bytes, window already holds ID 1000.
	_ = sock.SendTo(w.haHost.FirstAddr(), 434, signed)
	// Stale: properly signed but 100 behind the window head.
	req.ID = 900
	_ = sock.SendTo(w.haHost.FirstAddr(), 434, auth.AppendAuth(req.Marshal()))
	w.net.RunFor(1e9)

	if w.ha.Stats.AuthReplays != 1 {
		t.Errorf("AuthReplays = %d, want 1", w.ha.Stats.AuthReplays)
	}
	if w.ha.Stats.AuthStale != 1 {
		t.Errorf("AuthStale = %d, want 1", w.ha.Stats.AuthStale)
	}
	if w.ha.Stats.AuthBadMAC != 0 {
		t.Errorf("AuthBadMAC = %d, want 0 (both rejects were well-signed)", w.ha.Stats.AuthBadMAC)
	}
}

// TestFARelayWindowSuppressesDuplicates: the foreign agent's best-effort
// identification window kills exact replays and far-stale IDs one hop
// early, without holding any key.
func TestFARelayWindowSuppressesDuplicates(t *testing.T) {
	w := buildWorld(t, worldOpts{})
	faHost := w.net.AddHost("fa", w.visitLAN)
	w.net.ComputeRoutes()
	fa, err := mobileip.NewForeignAgent(faHost, faHost.Ifaces()[0], mobileip.ForeignAgentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	phantom := w.homeLAN.Prefix.Host(78)
	w.ha.Keys().Provision(phantom, testSPI, testKey)
	auth := mobileip.NewAuthenticator(testSPI, testKey)

	sock, err := w.chNear.OpenUDP(ipv4.Zero, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := mobileip.Request{
		Flags:     mobileip.FlagViaForeignAgent,
		Lifetime:  300,
		Home:      phantom,
		HomeAgent: w.haHost.FirstAddr(),
		CareOf:    fa.Addr(), // authenticated via-FA requests name the agent before signing
		ID:        2000,
	}
	signed := auth.AppendAuth(req.Marshal())
	_ = sock.SendTo(fa.Addr(), 434, signed)
	w.net.RunFor(1e9)
	if got, ok := w.ha.CareOf(phantom); !ok || got != fa.Addr() {
		t.Fatalf("relayed signed registration refused: binding = %v,%v", got, ok)
	}

	_ = sock.SendTo(fa.Addr(), 434, signed) // exact replay at the relay
	req.ID = 1900                           // 100 behind: stale at the relay
	_ = sock.SendTo(fa.Addr(), 434, auth.AppendAuth(req.Marshal()))
	w.net.RunFor(1e9)

	if fa.Stats.AuthReplays != 1 || fa.Stats.AuthStale != 1 {
		t.Errorf("FA relay window: replays=%d stale=%d, want 1/1", fa.Stats.AuthReplays, fa.Stats.AuthStale)
	}
	// Suppressed one hop early: the home agent never saw either.
	if w.ha.Stats.AuthReplays != 0 || w.ha.Stats.AuthStale != 0 {
		t.Errorf("HA saw suppressed messages: replays=%d stale=%d", w.ha.Stats.AuthReplays, w.ha.Stats.AuthStale)
	}
	if fa.Stats.Relayed != 1 {
		t.Errorf("Relayed = %d, want 1", fa.Stats.Relayed)
	}
}

// TestFARefusesRewrittenAuthenticatedRequest: an authenticated request
// whose care-of is not the agent's own (i.e. one the agent would have to
// rewrite, breaking a MAC it cannot recompute) is refused at the relay.
func TestFARefusesRewrittenAuthenticatedRequest(t *testing.T) {
	w := buildWorld(t, worldOpts{})
	faHost := w.net.AddHost("fa", w.visitLAN)
	w.net.ComputeRoutes()
	fa, err := mobileip.NewForeignAgent(faHost, faHost.Ifaces()[0], mobileip.ForeignAgentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	auth := mobileip.NewAuthenticator(testSPI, testKey)
	sock, err := w.chNear.OpenUDP(ipv4.Zero, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := mobileip.Request{
		Lifetime:  300, // no via-FA flag, care-of not the agent's
		Home:      w.homeLAN.Prefix.Host(79),
		HomeAgent: w.haHost.FirstAddr(),
		CareOf:    w.chNear.FirstAddr(),
		ID:        1,
	}
	_ = sock.SendTo(fa.Addr(), 434, auth.AppendAuth(req.Marshal()))
	w.net.RunFor(1e9)
	if fa.Stats.Relayed != 0 {
		t.Errorf("agent relayed an authenticated request it would have had to rewrite")
	}
	if fa.Stats.BadRequests != 1 {
		t.Errorf("BadRequests = %d, want 1", fa.Stats.BadRequests)
	}
}
