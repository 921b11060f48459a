package icmp

import (
	"bytes"
	"testing"
	"testing/quick"

	"mob4x4/internal/ipv4"
)

func TestEchoRoundTrip(t *testing.T) {
	m := EchoRequest(0x1234, 7, []byte("ping payload"))
	got, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeEchoRequest || got.ID != 0x1234 || got.Seq != 7 {
		t.Errorf("fields: %+v", got)
	}
	if !bytes.Equal(got.Body, m.Body) {
		t.Error("body mismatch")
	}
	reply := EchoReplyTo(got)
	if reply.Type != TypeEchoReply || reply.ID != got.ID || reply.Seq != got.Seq {
		t.Errorf("reply: %+v", reply)
	}
	if !bytes.Equal(reply.Body, got.Body) {
		t.Error("reply body mismatch")
	}
}

func TestEchoRoundTripProperty(t *testing.T) {
	f := func(id, seq uint16, body []byte) bool {
		if len(body) > 60000 {
			body = body[:60000]
		}
		m := EchoRequest(id, seq, body)
		got, err := Unmarshal(m.Marshal())
		return err == nil && got.ID == id && got.Seq == seq && bytes.Equal(got.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAppendMarshalDirtyBuffer checks that AppendMarshal writes every
// byte of each message kind itself: appended after a prefix into spare
// capacity full of junk, it produces what Marshal produces into fresh
// storage, and leaves the prefix alone.
func TestAppendMarshalDirtyBuffer(t *testing.T) {
	orig := ipv4.Packet{
		Header:  ipv4.Header{Protocol: ipv4.ProtoUDP, TTL: 1, Src: ipv4.MustParseAddr("1.2.3.4"), Dst: ipv4.MustParseAddr("5.6.7.8")},
		Payload: []byte("abcdefgh-tail"),
	}
	frag, err := FragNeeded(nil, orig, 576)
	if err != nil {
		t.Fatal(err)
	}
	exceeded, err := TimeExceeded(nil, orig)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Message{
		EchoRequest(0x1234, 7, []byte("ping payload")),
		EchoReplyTo(EchoRequest(1, 2, nil)),
		BindingNotice(ipv4.MustParseAddr("36.1.1.3"), ipv4.MustParseAddr("128.9.1.4"), 60),
		frag,
		exceeded,
	} {
		junk := bytes.Repeat([]byte{0xff}, 256)
		got := m.AppendMarshal(junk[:3])
		if want := m.Marshal(); !bytes.Equal(got[3:], want) {
			t.Errorf("%v: appended % x, want % x", m.Type, got[3:], want)
		}
		if !bytes.Equal(got[:3], []byte{0xff, 0xff, 0xff}) {
			t.Errorf("%v: prefix overwritten", m.Type)
		}
		if _, err := Unmarshal(got[3:]); err != nil {
			t.Errorf("%v: %v", m.Type, err)
		}
	}
}

func TestChecksumRejection(t *testing.T) {
	m := EchoRequest(1, 2, []byte("x"))
	b := m.Marshal()
	for i := range b {
		c := append([]byte(nil), b...)
		c[i] ^= 0x40
		if _, err := Unmarshal(c); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
}

func TestTruncated(t *testing.T) {
	if _, err := Unmarshal([]byte{8, 0, 0}); err == nil {
		t.Error("truncated header accepted")
	}
	// A mobility binding shorter than its fixed body.
	m := BindingNotice(ipv4.MustParseAddr("36.1.1.3"), ipv4.MustParseAddr("128.9.1.4"), 60)
	b := m.Marshal()
	short := b[:12]
	if _, err := Unmarshal(short); err == nil {
		t.Error("truncated binding accepted")
	}
}

func TestBindingNoticeRoundTrip(t *testing.T) {
	home := ipv4.MustParseAddr("36.1.1.3")
	coa := ipv4.MustParseAddr("128.9.1.4")
	m := BindingNotice(home, coa, 120)
	got, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeMobilityBinding || got.Home != home || got.CareOf != coa || got.Lifetime != 120 {
		t.Errorf("binding: %+v", got)
	}
}

func TestFragNeededQuotesOriginal(t *testing.T) {
	orig := ipv4.Packet{
		Header: ipv4.Header{
			Protocol: ipv4.ProtoTCP, TTL: 64,
			Src: ipv4.MustParseAddr("10.0.0.1"), Dst: ipv4.MustParseAddr("10.0.0.2"),
		},
		Payload: make([]byte, 500),
	}
	m, err := FragNeeded(nil, orig, 576)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeDestUnreachable || got.Code != CodeFragNeeded {
		t.Errorf("type/code: %v/%d", got.Type, got.Code)
	}
	if got.MTU != 576 {
		t.Errorf("mtu = %d", got.MTU)
	}
	// The quote is the original header + 8 bytes; check the embedded
	// source address bytes at their fixed offset.
	if len(got.Body) != ipv4.HeaderLen+8 {
		t.Errorf("quote length = %d", len(got.Body))
	}
	var src ipv4.Addr
	copy(src[:], got.Body[12:16])
	if src != orig.Src {
		t.Errorf("quoted source = %s", src)
	}
}

func TestTimeExceededQuote(t *testing.T) {
	orig := ipv4.Packet{
		Header: ipv4.Header{Protocol: ipv4.ProtoUDP, TTL: 1,
			Src: ipv4.MustParseAddr("1.2.3.4"), Dst: ipv4.MustParseAddr("5.6.7.8")},
		Payload: []byte("abcdefgh-tail"),
	}
	m, err := TimeExceeded(nil, orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeTimeExceeded {
		t.Errorf("type = %v", got.Type)
	}
	if len(got.Body) != ipv4.HeaderLen+8 {
		t.Errorf("quote = %d bytes", len(got.Body))
	}
	if !bytes.Equal(got.Body[ipv4.HeaderLen:], []byte("abcdefgh")) {
		t.Errorf("quoted payload = %q", got.Body[ipv4.HeaderLen:])
	}
}

func TestTypeStrings(t *testing.T) {
	for _, typ := range []Type{TypeEchoReply, TypeDestUnreachable, TypeEchoRequest,
		TypeTimeExceeded, TypeMobilityBinding} {
		if typ.String() == "" {
			t.Errorf("type %d has no string", typ)
		}
	}
	if Type(200).String() == "" {
		t.Error("unknown type should render")
	}
}

func BenchmarkEchoMarshal(b *testing.B) {
	m := EchoRequest(1, 1, make([]byte, 56))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Marshal()
	}
}
