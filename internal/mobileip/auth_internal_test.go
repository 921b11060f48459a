package mobileip

import (
	"math/rand"
	"testing"

	"mob4x4/internal/inet"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
)

func TestReplayWindowVerdicts(t *testing.T) {
	var w replayWindow
	steps := []struct {
		id   uint64
		want Verdict
	}{
		{100, Verified}, // first sighting
		{100, Replay},   // exact replay
		{101, Verified}, // monotone advance
		{99, Verified},  // in-window, not yet seen: late but legitimate
		{99, Replay},    // now it has been
		{38, Verified},  // 63 behind the head of 101: last in-window slot
		{37, Stale},     // 64 behind: off the window edge
		{1, Stale},      // far behind
		{500, Verified}, // jump > 64: bitmap resets to just the head
		{101, Stale},    // the old head is now far stale
	}
	for i, s := range steps {
		if got := w.check(s.id); got != s.want {
			t.Fatalf("step %d: check(%d) = %d, want %d", i, s.id, got, s.want)
		}
	}
}

func TestAuthExtRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		in := AuthExt{SPI: rng.Uint32()}
		rng.Read(in.MAC[:])
		b := in.AppendMarshal(nil)
		if len(b) != authExtLen {
			t.Fatalf("marshaled length %d, want %d", len(b), authExtLen)
		}
		var out AuthExt
		if !out.Unmarshal(b) || out != in {
			t.Fatalf("round trip lost %+v -> %+v", in, out)
		}
		// Truncated and oversized forms must be rejected whole.
		if out.Unmarshal(b[:len(b)-1]) {
			t.Fatal("truncated extension accepted")
		}
		if out.Unmarshal(append(b, 0)) {
			t.Fatal("oversized extension accepted")
		}
	}
}

func TestAuthenticatorTamperDetection(t *testing.T) {
	auth := NewAuthenticator(7, []byte("key"))
	req := Request{Lifetime: 300, Home: ipv4.Addr{36, 1, 1, 9}, ID: 42}
	msg := auth.AppendAuth(req.Marshal())
	if !auth.Verify(msg) {
		t.Fatal("freshly signed message failed to verify")
	}
	// Any single flipped bit — base message, extension header, or MAC —
	// must kill the signature: the MAC covers every preceding byte and is
	// itself compared in full.
	for i := range msg {
		msg[i] ^= 0x01
		if auth.Verify(msg) {
			t.Fatalf("verify passed with byte %d tampered", i)
		}
		msg[i] ^= 0x01
	}
	if !auth.Verify(msg) {
		t.Fatal("message no longer verifies after restoring bytes")
	}
	if auth.Verify(msg[:len(msg)-1]) || auth.Verify(msg[:requestLen]) || auth.Verify(nil) {
		t.Fatal("truncated message verified")
	}
	if NewAuthenticator(8, []byte("key")).Verify(msg) {
		t.Fatal("verified under the wrong SPI")
	}
	if NewAuthenticator(7, []byte("KEY")).Verify(msg) {
		t.Fatal("verified under the wrong key")
	}
}

// authedAgent is benchAgent plus one provisioned association: n filler
// bindings, a second host to receive replies, and the signer for home.
func authedAgent(tb testing.TB, n int) (net *inet.Network, ha *HomeAgent, auth *Authenticator, home, src ipv4.Addr) {
	tb.Helper()
	net = inet.New(1)
	lan := net.AddLAN("home", "36.1.0.0/16", netsim.SegmentOpts{Latency: 1e6})
	haHost := net.AddHost("ha", lan)
	var err error
	ha, err = NewHomeAgent(haHost, haHost.Ifaces()[0], HomeAgentConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		req := Request{
			Lifetime:  3600,
			Home:      lan.Prefix.Host(1000 + i),
			HomeAgent: ha.Addr(),
			CareOf:    lan.Prefix.Host(40000 + i),
			ID:        1,
		}
		ha.register(&req)
	}
	srcHost := net.AddHost("mh", lan)
	home = lan.Prefix.Host(500)
	key := []byte("bench-key-0123456789abcdef012345")
	ha.Keys().Provision(home, 9, key)
	return net, ha, NewAuthenticator(9, key), home, srcHost.FirstAddr()
}

// authedRenewal is one steady-state authenticated renewal: marshal and
// sign into a pooled buffer, full agent processing (parse, MAC verify,
// window advance, rebind, signed reply), then a short sim drain so the
// reply's pooled frame is recycled.
func authedRenewal(net *inet.Network, ha *HomeAgent, auth *Authenticator, req *Request, src ipv4.Addr) {
	buf := netsim.GetBuf()
	b := req.AppendMarshal(buf.B)
	b = auth.AppendAuth(b)
	ha.handleRegistration(src, 5001, ha.Addr(), b)
	netsim.PutBuf(buf)
	net.RunFor(5e6)
}

// TestAuthenticatedRenewalAllocs pins the whole authenticated renewal
// path — signing, HMAC verification, replay window, rebind, signed
// reply — at zero steady-state allocations: the HMAC states are
// preallocated per association and every wire image lives in a pooled
// buffer.
func TestAuthenticatedRenewalAllocs(t *testing.T) {
	net, ha, auth, home, src := authedAgent(t, 1000)
	req := Request{Lifetime: 3600, Home: home, HomeAgent: ha.Addr(), CareOf: src, ID: 1}
	renew := func() {
		req.ID++
		authedRenewal(net, ha, auth, &req, src)
	}
	renew() // create the binding; everything after is the renewal path
	if ha.Stats.AuthBadMAC+ha.Stats.AuthReplays+ha.Stats.AuthStale != 0 {
		t.Fatalf("renewal setup tripped auth rejects: %+v", ha.Stats)
	}
	avg := testing.AllocsPerRun(1000, renew)
	if avg > 0.1 {
		t.Errorf("authenticated renewal allocates %.3f objects/op, want <= 0.1", avg)
	}
}

// BenchmarkAuthenticatedRenewal measures the same path; the number to
// watch next to BenchmarkHARegisterRenewal is the HMAC-SHA256 sign +
// verify pair, which is the entire cost of turning the fleet's
// registration plane hijack-proof.
func BenchmarkAuthenticatedRenewal(b *testing.B) {
	net, ha, auth, home, src := authedAgent(b, 10_000)
	req := Request{Lifetime: 3600, Home: home, HomeAgent: ha.Addr(), CareOf: src, ID: 1}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req.ID = uint64(i + 2)
		authedRenewal(net, ha, auth, &req, src)
	}
	if ha.Stats.AuthBadMAC+ha.Stats.AuthReplays+ha.Stats.AuthStale != 0 {
		b.Fatalf("benchmark tripped auth rejects: %+v", ha.Stats)
	}
}
