package encap

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"mob4x4/internal/ipv4"
)

var (
	home = ipv4.MustParseAddr("36.1.1.3")
	coa  = ipv4.MustParseAddr("128.9.1.4")
	ha   = ipv4.MustParseAddr("36.1.1.2")
	ch   = ipv4.MustParseAddr("17.5.0.2")
)

func innerPacket(payload []byte) ipv4.Packet {
	return ipv4.Packet{
		Header: ipv4.Header{
			Protocol: ipv4.ProtoTCP, Src: home, Dst: ch, TTL: 60, ID: 7, TOS: 2,
		},
		Payload: payload,
	}
}

func TestRoundTripAllCodecs(t *testing.T) {
	for _, codec := range All() {
		t.Run(codec.Name(), func(t *testing.T) {
			in := innerPacket([]byte("payload bytes"))
			outer, err := codec.AppendEncap(in, coa, ha, ipv4.Zero, nil)
			if err != nil {
				t.Fatal(err)
			}
			if outer.Src != coa || outer.Dst != ha {
				t.Errorf("outer addresses %s > %s", outer.Src, outer.Dst)
			}
			if outer.Protocol != codec.Proto() {
				t.Errorf("outer protocol %d, want %d", outer.Protocol, codec.Proto())
			}
			got, err := codec.Decapsulate(outer)
			if err != nil {
				t.Fatal(err)
			}
			if got.Src != in.Src || got.Dst != in.Dst || got.Protocol != in.Protocol {
				t.Errorf("inner header mismatch: %+v", got.Header)
			}
			if !bytes.Equal(got.Payload, in.Payload) {
				t.Error("payload mismatch")
			}
		})
	}
}

func TestOverheadExactBytes(t *testing.T) {
	in := innerPacket(make([]byte, 1000))
	// compact: src preserved in the outer header, dst carried -> 8B.
	want := map[string]int{"ipip": 20, "minenc": 8, "gre": 24, "compact": 8}
	for _, codec := range All() {
		outer, err := codec.AppendEncap(in, home, ha, ipv4.Zero, nil) // minenc: src preserved -> 8B
		if err != nil {
			t.Fatal(err)
		}
		added := outer.TotalLen() - in.TotalLen()
		if added != want[codec.Name()] {
			t.Errorf("%s added %d bytes, want %d", codec.Name(), added, want[codec.Name()])
		}
		if added > codec.Overhead() {
			t.Errorf("%s measured overhead %d exceeds declared %d", codec.Name(), added, codec.Overhead())
		}
	}
}

func TestMinEncSourcePresent(t *testing.T) {
	in := innerPacket(make([]byte, 100))
	// Outer source differs from inner source: the 12-byte form.
	outer, err := MinEnc{}.AppendEncap(in, coa, ha, ipv4.Zero, nil)
	if err != nil {
		t.Fatal(err)
	}
	if added := outer.TotalLen() - in.TotalLen(); added != 12 {
		t.Errorf("src-present overhead = %d, want 12", added)
	}
	got, err := MinEnc{}.Decapsulate(outer)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != home {
		t.Errorf("inner source lost: %s", got.Src)
	}
	// Same source: the 8-byte form, source reconstructed from outer.
	outer2, err := MinEnc{}.AppendEncap(in, home, ha, ipv4.Zero, nil)
	if err != nil {
		t.Fatal(err)
	}
	if added := outer2.TotalLen() - in.TotalLen(); added != 8 {
		t.Errorf("src-absent overhead = %d, want 8", added)
	}
	got2, err := MinEnc{}.Decapsulate(outer2)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Src != home {
		t.Errorf("inner source not reconstructed: %s", got2.Src)
	}
}

func TestMinEncRejectsFragmentsAndOptions(t *testing.T) {
	in := innerPacket(make([]byte, 100))
	in.MoreFrags = true
	if _, err := (MinEnc{}).AppendEncap(in, coa, ha, ipv4.Zero, nil); err == nil {
		t.Error("fragment accepted")
	}
	in = innerPacket(make([]byte, 100))
	in.FragOffset = 8
	if _, err := (MinEnc{}).AppendEncap(in, coa, ha, ipv4.Zero, nil); err == nil {
		t.Error("offset fragment accepted")
	}
	in = innerPacket(make([]byte, 100))
	in.Options = []byte{1, 2, 3, 4}
	if _, err := (MinEnc{}).AppendEncap(in, coa, ha, ipv4.Zero, nil); err == nil {
		t.Error("options accepted")
	}
}

func TestMinEncChecksumValidation(t *testing.T) {
	in := innerPacket(make([]byte, 50))
	outer, _ := MinEnc{}.AppendEncap(in, coa, ha, ipv4.Zero, nil)
	outer.Payload[4] ^= 0xff // corrupt the forwarding header
	if _, err := (MinEnc{}).Decapsulate(outer); err == nil {
		t.Error("corrupted minenc header accepted")
	}
}

func TestGREKey(t *testing.T) {
	in := innerPacket(make([]byte, 100))
	keyed := GRE{Key: 0xdeadbeef}
	outer, err := keyed.AppendEncap(in, coa, ha, ipv4.Zero, nil)
	if err != nil {
		t.Fatal(err)
	}
	if added := outer.TotalLen() - in.TotalLen(); added != 28 {
		t.Errorf("keyed GRE overhead = %d, want 28", added)
	}
	if _, err := keyed.Decapsulate(outer); err != nil {
		t.Errorf("matching key rejected: %v", err)
	}
	if _, err := (GRE{Key: 1}).Decapsulate(outer); err == nil {
		t.Error("wrong key accepted")
	}
	// Keyless receiver accepts keyed packets (key check skipped).
	if _, err := (GRE{}).Decapsulate(outer); err != nil {
		t.Errorf("keyless decap of keyed packet failed: %v", err)
	}
}

func TestDecapsulateWrongProtocol(t *testing.T) {
	in := innerPacket(make([]byte, 10))
	ipip, _ := IPIP{}.AppendEncap(in, coa, ha, ipv4.Zero, nil)
	if _, err := (GRE{}).Decapsulate(ipip); err == nil {
		t.Error("GRE decapsulated an IPIP packet")
	}
	if _, err := (MinEnc{}).Decapsulate(ipip); err == nil {
		t.Error("MinEnc decapsulated an IPIP packet")
	}
	gre, _ := GRE{}.AppendEncap(in, coa, ha, ipv4.Zero, nil)
	if _, err := (IPIP{}).Decapsulate(gre); err == nil {
		t.Error("IPIP decapsulated a GRE packet")
	}
}

func TestDecapsulateTruncated(t *testing.T) {
	in := innerPacket(make([]byte, 10))
	for _, codec := range All() {
		outer, _ := codec.AppendEncap(in, coa, ha, ipv4.Zero, nil)
		outer.Payload = outer.Payload[:3]
		if _, err := codec.Decapsulate(outer); err == nil {
			t.Errorf("%s: truncated accepted", codec.Name())
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"ipip", "minenc", "gre"} {
		c, err := ByName(name)
		if err != nil || c.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, c, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown codec accepted")
	}
}

func TestTraceIDPreserved(t *testing.T) {
	for _, codec := range All() {
		in := innerPacket([]byte("x"))
		in.TraceID = 777
		outer, err := codec.AppendEncap(in, coa, ha, ipv4.Zero, nil)
		if err != nil {
			t.Fatal(err)
		}
		if outer.TraceID != 777 {
			t.Errorf("%s: encap lost trace id", codec.Name())
		}
		got, _ := codec.Decapsulate(outer)
		if got.TraceID != 777 {
			t.Errorf("%s: decap lost trace id", codec.Name())
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	codecs := All()
	f := func(which uint8, srcU, dstU, oSrcU, oDstU uint32, proto uint8, n uint16) bool {
		codec := codecs[int(which)%len(codecs)]
		in := ipv4.Packet{
			Header: ipv4.Header{
				Protocol: proto, TTL: 64,
				Src: ipv4.AddrFromUint32(srcU), Dst: ipv4.AddrFromUint32(dstU),
			},
			Payload: make([]byte, int(n)%4096),
		}
		rng.Read(in.Payload)
		outer, err := codec.AppendEncap(in, ipv4.AddrFromUint32(oSrcU), ipv4.AddrFromUint32(oDstU), ipv4.Zero, nil)
		if err != nil {
			return false
		}
		got, err := codec.Decapsulate(outer)
		if err != nil {
			return false
		}
		return got.Src == in.Src && got.Dst == in.Dst && got.Protocol == in.Protocol &&
			bytes.Equal(got.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// BenchmarkCodecs is the DESIGN.md codec ablation: cycles per
// encapsulate+decapsulate round trip for each scheme.
func BenchmarkCodecs(b *testing.B) {
	in := innerPacket(make([]byte, 1400))
	for _, codec := range All() {
		b.Run(codec.Name(), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(in.TotalLen()))
			for i := 0; i < b.N; i++ {
				outer, err := codec.AppendEncap(in, coa, ha, ipv4.Zero, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := codec.Decapsulate(outer); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(codec.Overhead()), "overhead-bytes")
		})
	}
}
