package routeopt_test

import (
	"fmt"
	"testing"

	"mob4x4/internal/inet"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/mobileip"
	"mob4x4/internal/netsim"
	"mob4x4/internal/routeopt"
	"mob4x4/internal/udp"
)

// verifier is one of the three ends that check signed messages through
// mobileip.Keys: the home agent, the regional gateway, and the
// binding-update receiver.
type verifier struct {
	name string
	addr ipv4.Addr
	port uint16
	keys *mobileip.Keys
	// message marshals an unsigned request or update for home; target
	// is the agent the message names (requests only).
	message func(home, target ipv4.Addr, id uint64) []byte
	// reply decodes the verifier's answer.
	reply func(payload []byte) (code uint8, hasAuth, ok bool)
	// accepted counts accepted messages; refused, where the verifier
	// keeps one, counts refused ones.
	accepted, refused func() uint64
	// unknownCode and unknownDrop are the answer to an unsigned message
	// for an unprovisioned home under RequireAuth: the receiver nacks
	// 136 and counts no drop; the agents refuse it as a bad MAC.
	unknownCode uint8
	unknownDrop bool
}

// verifierWorld puts all three verifiers and a sender on one LAN.
type verifierWorld struct {
	net       *inet.Network
	verifiers []verifier
	sender    ipv4.Addr
	send      func(dst ipv4.Addr, port uint16, b []byte)
	last      []byte // the latest reply the sender received
	provHome  ipv4.Addr
	openHome  ipv4.Addr
}

func buildVerifierWorld(t *testing.T, required bool) *verifierWorld {
	t.Helper()
	w := &verifierWorld{net: inet.New(11)}
	lan := w.net.AddLAN("lan", "36.1.0.0/16", netsim.SegmentOpts{Latency: 1 * ms})
	haHost := w.net.AddHost("ha", lan)
	gfaHost := w.net.AddHost("gfa", lan)
	chHost := w.net.AddHost("ch", lan)
	senderHost := w.net.AddHost("sender", lan)
	w.net.ComputeRoutes()
	w.provHome, w.openHome = lan.Prefix.Host(500), lan.Prefix.Host(501)
	w.sender = senderHost.FirstAddr()
	careOf := lan.Prefix.Host(900)

	ha, err := mobileip.NewHomeAgent(haHost, haHost.Ifaces()[0], mobileip.HomeAgentConfig{RequireAuth: required})
	if err != nil {
		t.Fatal(err)
	}
	gfa, err := routeopt.NewRegionalAgent(gfaHost, gfaHost.FirstAddr(), routeopt.RegionalAgentConfig{
		HomeAgent: ha.Addr(), RequireAuth: required,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := mobileip.NewCorrespondent(chHost, nil, mobileip.CorrespondentConfig{CanDecapsulate: true, MobileAware: true})
	recv, err := routeopt.NewReceiver(c, routeopt.ReceiverConfig{RequireAuth: required})
	if err != nil {
		t.Fatal(err)
	}

	request := func(home, target ipv4.Addr, id uint64) []byte {
		req := mobileip.Request{Lifetime: 60, Home: home, HomeAgent: target, CareOf: careOf, ID: id}
		return req.Marshal()
	}
	reply := func(b []byte) (uint8, bool, bool) {
		rep, _, hasAuth, ok := mobileip.ParseReply(b)
		return rep.Code, hasAuth, ok
	}
	w.verifiers = []verifier{
		{name: "home agent", addr: ha.Addr(), port: udp.PortRegistration, keys: ha.Keys(),
			message: request, reply: reply,
			accepted:    func() uint64 { return ha.Stats.Registrations },
			unknownCode: mobileip.CodeDeniedAuthFailed, unknownDrop: true},
		{name: "gateway", addr: gfa.Addr(), port: udp.PortRegistration, keys: gfa.Keys(),
			message: request, reply: reply,
			accepted:    func() uint64 { return gfa.Stats.Registrations },
			refused:     func() uint64 { return gfa.Stats.Denied },
			unknownCode: mobileip.CodeDeniedAuthFailed, unknownDrop: true},
		{name: "receiver", addr: chHost.FirstAddr(), port: udp.PortBindingUpdate, keys: recv.Keys(),
			message: func(home, _ ipv4.Addr, id uint64) []byte {
				u := routeopt.BindingUpdate{Lifetime: 20, Home: home, CareOf: careOf, ID: id}
				return u.Marshal()
			},
			reply: func(b []byte) (uint8, bool, bool) {
				a, _, hasAuth, ok := routeopt.ParseAck(b)
				return a.Code, hasAuth, ok
			},
			accepted:    func() uint64 { return recv.Stats.Accepted },
			refused:     func() uint64 { return recv.Stats.Refused },
			unknownCode: routeopt.AckDeniedUnknownHome},
	}
	for _, v := range w.verifiers {
		v.keys.Provision(w.provHome, testSPI, testKey)
	}

	sock, err := senderHost.OpenUDP(ipv4.Zero, 0, func(_ ipv4.Addr, _ uint16, _ ipv4.Addr, payload []byte) {
		w.last = append(w.last[:0], payload...)
	})
	if err != nil {
		t.Fatal(err)
	}
	w.send = func(dst ipv4.Addr, port uint16, b []byte) {
		w.last = w.last[:0]
		_ = sock.SendTo(dst, port, b)
		w.net.RunFor(1e9)
	}
	return w
}

// authDrops reads the three auth drop causes.
func authDrops(reg *metrics.Registry) [3]uint64 {
	return [3]uint64{
		reg.DropCount(metrics.DropAuthBadMAC),
		reg.DropCount(metrics.DropAuthReplay),
		reg.DropCount(metrics.DropAuthStaleID),
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestVerifiersAgree runs one table of signed and unsigned messages
// against the home agent, the regional gateway and the binding-update
// receiver, with and without RequireAuth. For each it checks the reply
// code, the drop-cause delta, whether the reply is signed, and that a
// rejected message leaves the replay window where it was: the next
// fresh identification is still accepted.
func TestVerifiersAgree(t *testing.T) {
	auth := mobileip.NewAuthenticator(testSPI, testKey)
	forger := mobileip.NewAuthenticator(testSPI, []byte("not-the-key-0123456789abcdef0123"))
	const (
		badMAC = iota
		replay
		stale
		none
	)
	for _, required := range []bool{false, true} {
		w := buildVerifierWorld(t, required)
		for _, v := range w.verifiers {
			t.Run(fmt.Sprintf("%s/required=%v", v.name, required), func(t *testing.T) {
				head := uint64(1000) // the highest identification accepted
				check := func(name string, b []byte, code uint8, drop int, signed bool) {
					t.Helper()
					before := authDrops(w.net.Sim.Metrics)
					accepted := v.accepted()
					var refused uint64
					if v.refused != nil {
						refused = v.refused()
					}
					w.send(v.addr, v.port, b)
					got, hasAuth, ok := v.reply(w.last)
					if !ok {
						t.Fatalf("%s: no reply", name)
					}
					if got != code {
						t.Errorf("%s: code %d, want %d", name, got, code)
					}
					if d := v.accepted() - accepted; d != b2u(code == 0) {
						t.Errorf("%s: accepted count moved by %d", name, d)
					}
					if v.refused != nil && v.refused()-refused != b2u(code != 0) {
						t.Errorf("%s: refused count moved by %d", name, v.refused()-refused)
					}
					after := authDrops(w.net.Sim.Metrics)
					for c := range after {
						want := uint64(0)
						if c == drop {
							want = 1
						}
						if d := after[c] - before[c]; d != want {
							t.Errorf("%s: drop cause %d counted %d, want %d", name, c, d, want)
						}
					}
					if hasAuth != signed || signed && !auth.Verify(w.last) {
						t.Errorf("%s: reply signed=%v verifies=%v, want signed=%v",
							name, hasAuth, auth.Verify(w.last), signed)
					}
				}
				msg := func(home ipv4.Addr, id uint64) []byte { return v.message(home, v.addr, id) }
				// fresh sends a legitimate message with the next
				// identification, which must be accepted.
				fresh := func(name string) {
					t.Helper()
					head++
					check(name+", then fresh ID", auth.AppendAuth(msg(w.provHome, head)), 0, none, true)
				}

				unsigned := msg(w.openHome, 1)
				if required {
					drop := none
					if v.unknownDrop {
						drop = badMAC
					}
					check("unsigned, unprovisioned home", unsigned, v.unknownCode, drop, false)
				} else {
					check("unsigned, unprovisioned home", unsigned, 0, none, false)
				}

				check("fresh ID", auth.AppendAuth(msg(w.provHome, head)), 0, none, true)
				check("forged MAC", forger.AppendAuth(msg(w.provHome, head+1)), mobileip.CodeDeniedAuthFailed, badMAC, true)
				fresh("forged MAC")
				check("unsigned under an association", msg(w.provHome, head+1), mobileip.CodeDeniedAuthFailed, badMAC, true)
				fresh("unsigned under an association")
				check("exact replay", auth.AppendAuth(msg(w.provHome, head)), mobileip.CodeDeniedReplay, replay, true)
				fresh("exact replay")
				check("ID behind the window", auth.AppendAuth(msg(w.provHome, head-100)), mobileip.CodeDeniedStaleID, stale, true)
				fresh("ID behind the window")
				if v.port == udp.PortRegistration {
					b := auth.AppendAuth(v.message(w.provHome, w.sender, head+1))
					check("misaddressed", b, mobileip.CodeDeniedNotHomeAgent, none, true)
					fresh("misaddressed")
				}
			})
		}
	}
}
