package encap

import (
	"bytes"
	"testing"

	"mob4x4/internal/ipv4"
)

// fuzzSrc/fuzzDst frame the tunnel endpoints used by every fuzz target.
var (
	fuzzSrc = ipv4.AddrFrom(36, 22, 0, 5)
	fuzzDst = ipv4.AddrFrom(128, 9, 1, 4)
)

// seedInner is a well-formed packet to derive valid tunnel payloads from.
func seedInner() ipv4.Packet {
	return ipv4.Packet{
		Header: ipv4.Header{
			TTL:      ipv4.DefaultTTL,
			Protocol: ipv4.ProtoUDP,
			Src:      ipv4.AddrFrom(36, 1, 1, 3),
			Dst:      ipv4.AddrFrom(17, 5, 0, 2),
		},
		Payload: []byte("seed"),
	}
}

// fuzzDecapsulate drives one codec's Decapsulate with arbitrary tunnel
// payloads. Decapsulation is the paper's packet-input edge: a home agent
// or smart correspondent feeds whatever arrives on the wire into it, so
// malformed bytes must produce an error, never a panic.
func fuzzDecapsulate(f *testing.F, c Codec) {
	if outer, err := c.AppendEncap(seedInner(), fuzzSrc, fuzzDst, ipv4.Zero, nil); err == nil {
		f.Add(outer.Payload) // a genuine well-formed tunnel payload
	}
	f.Add([]byte{})
	f.Add([]byte{0x45})
	f.Add(bytes.Repeat([]byte{0xff}, 24))
	f.Add(make([]byte, 24))

	f.Fuzz(func(t *testing.T, data []byte) {
		outer := ipv4.Packet{
			Header: ipv4.Header{
				Protocol: c.Proto(),
				TTL:      ipv4.DefaultTTL,
				Src:      fuzzSrc,
				Dst:      fuzzDst,
			},
			Payload: data,
		}
		inner, err := c.Decapsulate(outer)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		if got := inner.TotalLen(); got > ipv4.MaxTotalLen {
			t.Fatalf("accepted inner packet exceeds IPv4 limits: %d bytes", got)
		}
	})
}

func FuzzDecapsulateIPIP(f *testing.F)   { fuzzDecapsulate(f, IPIP{}) }
func FuzzDecapsulateMinEnc(f *testing.F) { fuzzDecapsulate(f, MinEnc{}) }
func FuzzDecapsulateGRE(f *testing.F)    { fuzzDecapsulate(f, GRE{}) }

// FuzzDecapsulateCompact covers the route-opt compression option in both
// endpoint shapes: agent side (no home; dst-is-home headers must be
// rejected, not guessed) and mobile side (home configured, restoration
// engaged).
func FuzzDecapsulateCompact(f *testing.F) { fuzzDecapsulate(f, Compact{}) }
func FuzzDecapsulateCompactHome(f *testing.F) {
	fuzzDecapsulate(f, Compact{Home: ipv4.AddrFrom(36, 1, 1, 3)})
}

// FuzzDecapsulateGREKeyed exercises the key-checking path separately:
// with a key configured, mismatched and absent keys must be rejected
// without panicking.
func FuzzDecapsulateGREKeyed(f *testing.F) {
	fuzzDecapsulate(f, GRE{Key: 0xfeedface})
}

// FuzzEncapRoundTrip builds an arbitrary (but marshalable) inner packet,
// runs it through every codec, and checks that whatever AppendEncap
// accepts comes back byte-identical from Decapsulate — the property the
// paper's overhead comparison (Section 3.3) silently assumes.
func FuzzEncapRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(ipv4.ProtoUDP), uint8(64), uint16(7), []byte("hello"))
	f.Add(uint8(1), uint8(ipv4.ProtoTCP), uint8(1), uint16(0), []byte{})
	f.Add(uint8(2), uint8(ipv4.ProtoICMP), uint8(255), uint16(65535), bytes.Repeat([]byte{0xa5}, 100))
	f.Add(uint8(3), uint8(0), uint8(0), uint16(42), []byte("x"))

	f.Fuzz(func(t *testing.T, which, proto, ttl uint8, id uint16, payload []byte) {
		codecs := All()
		// A keyed GRE and a home-configured Compact (its home matching the
		// fixed inner destination, so the dst-is-home path round-trips).
		codecs = append(codecs, GRE{Key: 0xfeedface}, Compact{Home: ipv4.AddrFrom(17, 5, 0, 2)})
		c := codecs[int(which)%len(codecs)]
		inner := ipv4.Packet{
			Header: ipv4.Header{
				ID:       id,
				TTL:      ttl,
				Protocol: proto,
				Src:      ipv4.AddrFrom(36, 1, 1, 3),
				Dst:      ipv4.AddrFrom(17, 5, 0, 2),
			},
			Payload: payload,
		}
		outer, err := c.AppendEncap(inner, fuzzSrc, fuzzDst, ipv4.Zero, nil)
		if err != nil {
			return // e.g. payload too large for an IPv4 total length
		}
		if outer.Protocol != c.Proto() {
			t.Fatalf("%s: outer protocol %d, want %d", c.Name(), outer.Protocol, c.Proto())
		}
		// AppendEncap must build the same outer packet into dirty
		// memory as into a nil buffer (it may not rely on make()'s
		// zeroing).
		dirty := bytes.Repeat([]byte{0xff}, len(outer.Payload))
		outerA, err := c.AppendEncap(inner, fuzzSrc, fuzzDst, ipv4.Zero, dirty[:0])
		if err != nil {
			t.Fatalf("%s: AppendEncap into a dirty buffer failed where a nil one succeeded: %v", c.Name(), err)
		}
		wireA, errA := outerA.Marshal()
		wire, errW := outer.Marshal()
		if errA != nil || errW != nil {
			t.Fatalf("%s: marshal of outer packets failed: %v / %v", c.Name(), errA, errW)
		}
		if !bytes.Equal(wireA, wire) {
			t.Fatalf("%s: AppendEncap into a dirty buffer diverges from a nil one:\n dirty %x\n nil   %x", c.Name(), wireA, wire)
		}
		got, err := c.Decapsulate(outer)
		if err != nil {
			t.Fatalf("%s: decapsulate of own encapsulation failed: %v", c.Name(), err)
		}
		if got.Src != inner.Src || got.Dst != inner.Dst || got.Protocol != inner.Protocol {
			t.Fatalf("%s: addressing changed across round trip: %s -> %s", c.Name(), &inner, &got)
		}
		if !bytes.Equal(got.Payload, inner.Payload) {
			t.Fatalf("%s: payload changed across round trip (%d -> %d bytes)",
				c.Name(), len(inner.Payload), len(got.Payload))
		}
		if want := inner.TotalLen() + c.Overhead(); outer.TotalLen() > want {
			t.Fatalf("%s: overhead exceeds advertised %d bytes: inner %d, outer %d",
				c.Name(), c.Overhead(), inner.TotalLen(), outer.TotalLen())
		}
	})
}
