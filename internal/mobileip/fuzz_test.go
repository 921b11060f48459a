package mobileip

import (
	"bytes"
	"encoding/binary"
	"testing"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
)

// FuzzAuthExtension feeds arbitrary bytes to the authentication-carrying
// parsers. These sit on the registration plane's hostile-input boundary
// — every port-434 datagram an attacker can forge goes through them —
// so they must reject garbage without panicking, and anything accepted
// must be in canonical form: re-marshalling the parsed message (plus its
// extension, if any) reproduces the input byte-for-byte. That property
// is what makes "the MAC covers every byte that arrived" checkable.
func FuzzAuthExtension(f *testing.F) {
	auth := NewAuthenticator(0x101, []byte("fuzz-seed-key"))
	req := Request{
		Flags:     FlagReverseTunnel,
		Lifetime:  300,
		Home:      [4]byte{36, 1, 1, 3},
		HomeAgent: [4]byte{36, 1, 1, 2},
		CareOf:    [4]byte{128, 9, 1, 4},
		ID:        0xdeadbeefcafe,
	}
	rep := Reply{Code: CodeAccepted, Lifetime: 300, Home: req.Home, HomeAgent: req.HomeAgent, ID: req.ID}
	signedReq := auth.AppendAuth(req.Marshal())
	signedRep := auth.AppendAuth(rep.Marshal())
	f.Add(signedReq)
	f.Add(signedRep)
	f.Add(req.Marshal())
	f.Add(rep.Marshal())
	f.Add(signedReq[:len(signedReq)-1])           // truncated MAC
	f.Add(append(signedReq, 0))                   // trailing garbage after the extension
	f.Add(append(req.Marshal(), 1, 2))            // trailing garbage, no extension
	f.Add(signedReq[requestLen:])                 // a bare extension
	f.Add([]byte{AuthExtType, authExtPayloadLen}) // extension header, no body

	f.Fuzz(func(t *testing.T, data []byte) {
		var ext AuthExt
		if ext.Unmarshal(data) {
			b := ext.AppendMarshal(nil)
			if !bytes.Equal(b, data) {
				t.Fatalf("accepted extension not canonical: %x -> %x", data, b)
			}
		}
		if r, e, hasAuth, ok := ParseRequest(data); ok {
			b := r.AppendMarshal(nil)
			if hasAuth {
				b = e.AppendMarshal(b)
			}
			if !bytes.Equal(b, data) {
				t.Fatalf("accepted request not canonical: %x -> %x", data, b)
			}
		}
		if r, e, hasAuth, ok := ParseReply(data); ok {
			b := r.AppendMarshal(nil)
			if hasAuth {
				b = e.AppendMarshal(b)
			}
			if !bytes.Equal(b, data) {
				t.Fatalf("accepted reply not canonical: %x -> %x", data, b)
			}
		}
		// ParseMessage must agree with the typed parsers and never panic.
		_, _ = ParseMessage(data)
	})
}

// FuzzKeysCheck drives one verifier's Keys through an arbitrary sequence
// of messages. The input decodes to the required flag, whether the home
// is provisioned, and records of (payload bytes, hasAuth, id); a record
// may instead carry the one legitimately signed message, so the window
// sees real traffic. Properties: Check never panics, only Verified moves
// the window, and each rejection counts exactly one drop of its own
// cause while Unsigned, Unknown and Verified count none.
func FuzzKeysCheck(f *testing.F) {
	key := []byte("fuzz-keys-check-key")
	home := ipv4.Addr{36, 1, 1, 3}
	req := Request{Lifetime: 60, Home: home, HomeAgent: ipv4.Addr{36, 1, 1, 2}, ID: 1}
	legit := NewAuthenticator(7, key).AppendAuth(req.Marshal())
	// Record layout: length, flags (bit 0 hasAuth, bit 1 legitimate
	// message), id (2 bytes), then length payload bytes.
	f.Add([]byte{0x02, 0, 3, 0, 10, 0, 3, 0, 10, 0, 3, 0, 9, 0, 3, 0, 0})
	f.Add([]byte{0x03, 4, 1, 0, 10, 1, 2, 3, 4, 0, 2, 0, 11})
	f.Add([]byte{0x01, 0, 0, 0, 1})
	f.Add([]byte{0x00, 0, 1, 0, 1})
	f.Add([]byte{0x02, 0, 3, 0xff, 0xff, 0, 3, 0, 1, 0, 1, 0, 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		reg := metrics.NewRegistry()
		k := NewKeys(reg, data[0]&1 != 0)
		if data[0]&2 != 0 {
			k.Provision(home, 7, key)
		}
		causes := map[Verdict]metrics.DropCause{
			BadMAC: metrics.DropAuthBadMAC, Replay: metrics.DropAuthReplay, Stale: metrics.DropAuthStaleID,
		}
		drops := func() [3]uint64 {
			return [3]uint64{reg.DropCount(metrics.DropAuthBadMAC),
				reg.DropCount(metrics.DropAuthReplay), reg.DropCount(metrics.DropAuthStaleID)}
		}
		for rest := data[1:]; len(rest) >= 4; {
			n, flags, id := int(rest[0]), rest[1], uint64(binary.BigEndian.Uint16(rest[2:4]))
			rest = rest[4:]
			msg := rest[:min(n, len(rest))]
			rest = rest[len(msg):]
			hasAuth := flags&1 != 0
			if flags&2 != 0 {
				msg = legit
			}
			var window replayWindow
			as := k.assoc[home]
			if as != nil {
				window = as.window
			}
			before := drops()
			v := k.Check(home, msg, hasAuth, id)
			after := drops()

			if as != nil && (v == Verified) == (as.window == window) {
				t.Fatalf("verdict %d: window %+v -> %+v", v, window, as.window)
			}
			for i, c := range []metrics.DropCause{metrics.DropAuthBadMAC, metrics.DropAuthReplay, metrics.DropAuthStaleID} {
				want := uint64(0)
				if cause, ok := causes[v]; ok && cause == c {
					want = 1
				}
				if after[i]-before[i] != want {
					t.Fatalf("verdict %d: drop cause %v counted %d, want %d", v, c, after[i]-before[i], want)
				}
			}
			switch {
			case as == nil && k.required && v != Unknown, as == nil && !k.required && v != Unsigned:
				t.Fatalf("unprovisioned home: verdict %d", v)
			case as != nil && (v == BadMAC) == (hasAuth && as.auth.Verify(msg)):
				t.Fatalf("provisioned home: verdict %d for hasAuth=%v", v, hasAuth)
			}
		}
	})
}
