package encap

import (
	"bytes"
	"testing"

	"mob4x4/internal/ipv4"
)

var (
	compactHome   = ipv4.AddrFrom(36, 1, 1, 3)
	compactCareOf = ipv4.AddrFrom(10, 3, 0, 18)
	compactCH     = ipv4.AddrFrom(17, 5, 0, 2)
	compactHA     = ipv4.AddrFrom(36, 1, 1, 2)
)

func compactInner(src, dst ipv4.Addr) ipv4.Packet {
	return ipv4.Packet{
		Header: ipv4.Header{
			TTL:      40,
			TOS:      3,
			ID:       777,
			Protocol: ipv4.ProtoUDP,
			Src:      src,
			Dst:      dst,
		},
		Payload: []byte("compact-payload"),
	}
}

// TestCompactElisionShapes pins the header size and the restored
// addressing for each of the tunnel shapes the fleet produces.
func TestCompactElisionShapes(t *testing.T) {
	tests := []struct {
		name     string
		codec    Compact // encapsulating end
		decap    Compact // decapsulating end
		home     ipv4.Addr
		src, dst ipv4.Addr // tunnel endpoints
		inner    ipv4.Packet
		overhead int
	}{
		{
			// Smart correspondent In-DE: outer source is the inner source
			// and the binding home is stated per call — both elided.
			name:  "correspondent-binding-tunnel",
			home:  compactHome,
			src:   compactCH,
			dst:   compactCareOf,
			inner: compactInner(compactCH, compactHome),
			decap: Compact{Home: compactHome}, overhead: 4,
		},
		{
			// HA In-IE: inner source (the CH) differs from the outer
			// source (the HA); destination is the binding home.
			name:  "ha-binding-tunnel",
			home:  compactHome,
			src:   compactHA,
			dst:   compactCareOf,
			inner: compactInner(compactCH, compactHome),
			decap: Compact{Home: compactHome}, overhead: 8,
		},
		{
			// MN Out-DE: tunnel ends at the inner destination; the home
			// source rides in the header.
			name:     "mn-direct-tunnel",
			src:      compactCareOf,
			dst:      compactCH,
			inner:    compactInner(compactHome, compactCH),
			overhead: 8,
		},
		{
			// MN Out-IE reverse tunnel: nothing elidable — worst case.
			name:     "mn-reverse-tunnel",
			src:      compactCareOf,
			dst:      compactHA,
			inner:    compactInner(compactHome, compactCH),
			overhead: 12,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			outer, err := tc.codec.AppendEncap(tc.inner, tc.src, tc.dst, tc.home, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := outer.TotalLen() - tc.inner.TotalLen(); got != tc.overhead {
				t.Errorf("overhead %d bytes, want %d", got, tc.overhead)
			}
			got, err := tc.decap.Decapsulate(outer)
			if err != nil {
				t.Fatal(err)
			}
			if got.Src != tc.inner.Src || got.Dst != tc.inner.Dst {
				t.Errorf("addressing %s->%s, want %s->%s", got.Src, got.Dst, tc.inner.Src, tc.inner.Dst)
			}
			if got.Protocol != tc.inner.Protocol || got.TTL != tc.inner.TTL ||
				got.TOS != tc.inner.TOS || got.ID != tc.inner.ID {
				t.Errorf("header fields changed across the round trip: %+v", got.Header)
			}
			if !bytes.Equal(got.Payload, tc.inner.Payload) {
				t.Errorf("payload changed across the round trip")
			}
		})
	}
}

// TestCompactInstanceHome checks the mobile-endpoint form: a codec
// constructed with Home elides and restores without the per-call hint.
func TestCompactInstanceHome(t *testing.T) {
	c := Compact{Home: compactHome}
	inner := compactInner(compactCH, compactHome)
	outer, err := c.AppendEncap(inner, compactHA, compactCareOf, ipv4.Zero, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := outer.TotalLen() - inner.TotalLen(); got != 8 {
		t.Fatalf("overhead %d bytes, want 8 (dst elided via instance Home)", got)
	}
	got, err := c.Decapsulate(outer)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dst != compactHome {
		t.Fatalf("restored dst %s, want home %s", got.Dst, compactHome)
	}
}

// TestCompactDstHomeNeedsHome: a decapsulator with no Home must reject a
// dst-is-home header rather than guess an inner destination.
func TestCompactDstHomeNeedsHome(t *testing.T) {
	inner := compactInner(compactCH, compactHome)
	outer, err := Compact{}.AppendEncap(inner, compactHA, compactCareOf, compactHome, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Compact{}).Decapsulate(outer); err == nil {
		t.Fatal("decapsulated a dst-is-home header without a configured home")
	}
}

// TestCompactRejects pins the malformed-input edges.
func TestCompactRejects(t *testing.T) {
	c := Compact{}
	inner := compactInner(compactHome, compactCH)

	frag := inner
	frag.MoreFrags = true
	if _, err := c.AppendEncap(frag, compactCareOf, compactCH, ipv4.Zero, nil); err == nil {
		t.Error("encapsulated a fragment")
	}
	opts := inner
	opts.Options = []byte{1}
	if _, err := c.AppendEncap(opts, compactCareOf, compactCH, ipv4.Zero, nil); err == nil {
		t.Error("encapsulated IP options")
	}

	outer, err := c.AppendEncap(inner, compactCareOf, compactHA, ipv4.Zero, nil)
	if err != nil {
		t.Fatal(err)
	}
	wrongProto := outer
	wrongProto.Protocol = ipv4.ProtoIPIP
	if _, err := c.Decapsulate(wrongProto); err == nil {
		t.Error("decapsulated a non-compact protocol")
	}
	short := outer
	short.Payload = outer.Payload[:3]
	if _, err := c.Decapsulate(short); err == nil {
		t.Error("decapsulated a truncated header")
	}
	// A header claiming both address bytes but carrying none.
	lying := outer
	lying.Payload = append([]byte(nil), outer.Payload[:4]...)
	lying.Payload[1] = compactSrcPresent | compactDstPresent
	if _, err := c.Decapsulate(lying); err == nil {
		t.Error("decapsulated a header shorter than its flags claim")
	}
	corrupt := outer
	corrupt.Payload = append([]byte(nil), outer.Payload...)
	corrupt.Payload[4] ^= 0xff
	if _, err := c.Decapsulate(corrupt); err == nil {
		t.Error("decapsulated a corrupted header")
	}
	both := outer
	both.Payload = append([]byte(nil), outer.Payload...)
	both.Payload[1] = compactDstPresent | compactDstHome
	if _, err := c.Decapsulate(both); err == nil {
		t.Error("accepted mutually exclusive dst flags")
	}
}

// TestCompactMulticastInnerNotElided: a multicast inner destination (the
// HA's multicast relay path) never matches a unicast tunnel endpoint or
// home, so it must ride in the header explicitly.
func TestCompactMulticastInnerNotElided(t *testing.T) {
	group := ipv4.AddrFrom(224, 0, 1, 9)
	inner := compactInner(compactCH, group)
	outer, err := Compact{Home: compactHome}.AppendEncap(inner, compactHA, compactCareOf, compactHome, nil)
	if err != nil {
		t.Fatal(err)
	}
	if outer.Payload[1]&compactDstPresent == 0 {
		t.Fatal("multicast inner destination was elided")
	}
	got, err := Compact{Home: compactHome}.Decapsulate(outer)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dst != group {
		t.Fatalf("restored dst %s, want %s", got.Dst, group)
	}
}

// TestEncapHomeArgument: the codecs without home elision must ignore
// AppendEncap's home argument byte for byte, and Compact must engage it.
func TestEncapHomeArgument(t *testing.T) {
	inner := compactInner(compactCH, compactHome)
	for _, c := range []Codec{IPIP{}, MinEnc{}, GRE{}, GRE{Key: 7}} {
		withHome, err := c.AppendEncap(inner, compactHA, compactCareOf, compactHome, nil)
		if err != nil {
			t.Fatal(err)
		}
		without, err := c.AppendEncap(inner, compactHA, compactCareOf, ipv4.Zero, nil)
		if err != nil {
			t.Fatal(err)
		}
		a, errA := withHome.Marshal()
		b, errB := without.Marshal()
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Errorf("%s: the home argument changed the encapsulation", c.Name())
		}
	}
	out, err := Compact{}.AppendEncap(inner, compactHA, compactCareOf, compactHome, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.TotalLen() - inner.TotalLen(); got != 8 {
		t.Errorf("home-aware compact overhead %d bytes, want 8", got)
	}
}
