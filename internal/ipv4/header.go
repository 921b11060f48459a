package ipv4

import (
	"encoding/binary"
	"fmt"
)

// Protocol numbers carried in the IPv4 Protocol field. The values are the
// IANA assignments; Mobile IP tunneling uses ProtoIPIP (4, "IP in IP"),
// ProtoMinEnc (55, Minimal Encapsulation per [Per95]) and ProtoGRE (47,
// Generic Routing Encapsulation per RFC 1702).
const (
	ProtoICMP   uint8 = 1
	ProtoIPIP   uint8 = 4
	ProtoTCP    uint8 = 6
	ProtoUDP    uint8 = 17
	ProtoGRE    uint8 = 47
	ProtoMinEnc uint8 = 55
	// ProtoCompact is the route-optimization compact encapsulation
	// (internal/encap.Compact); it uses an RFC 3692 experimental number.
	ProtoCompact uint8 = 253
)

// HeaderLen is the length of an IPv4 header without options.
const HeaderLen = 20

// MaxTotalLen is the maximum value of the Total Length field.
const MaxTotalLen = 65535

// Flag bits in the Flags/FragmentOffset word.
const (
	flagDF = 0x4000 // don't fragment
	flagMF = 0x2000 // more fragments
)

// DefaultTTL is the initial TTL used by hosts in the simulation.
const DefaultTTL = 64

// Header is a parsed IPv4 header. Option bytes are carried verbatim
// (padded to a 4-byte multiple on marshal).
type Header struct {
	TOS        uint8
	ID         uint16
	DontFrag   bool
	MoreFrags  bool
	FragOffset uint16 // in 8-byte units
	TTL        uint8
	Protocol   uint8
	Src        Addr
	Dst        Addr
	Options    []byte
}

// Len returns the marshalled header length in bytes (IHL*4).
func (h *Header) Len() int {
	opt := (len(h.Options) + 3) &^ 3
	return HeaderLen + opt
}

// Packet is an IPv4 packet: a header plus payload. Packet values are passed
// through the simulated internetwork; routers mutate only the TTL and
// checksum. Payload contents are shared, not copied, between hops — the
// simulation never mutates payloads in flight.
type Packet struct {
	Header
	Payload []byte
	// TraceID is not wire content: it is simulation metadata identifying
	// the logical packet across hops and tunnels for the tracer. Marshal
	// does not serialize it and Unmarshal leaves it zero; the stack
	// carries it out-of-band on frames and restores it on receive.
	TraceID uint64
}

// TotalLen returns the value the Total Length field will carry.
func (p *Packet) TotalLen() int { return p.Header.Len() + len(p.Payload) }

// TransportDstPort returns the destination port of a UDP or TCP payload
// (both carry it at offset 2); ok is false for other protocols and
// payloads too short to hold one.
func (p *Packet) TransportDstPort() (port uint16, ok bool) {
	if p.Protocol != ProtoUDP && p.Protocol != ProtoTCP || len(p.Payload) < 4 {
		return 0, false
	}
	return binary.BigEndian.Uint16(p.Payload[2:4]), true
}

// Clone returns a deep copy of the packet. Hosts that need to retain or
// modify a received packet (e.g. a decapsulating agent) clone first.
func (p *Packet) Clone() Packet {
	q := *p
	if p.Options != nil {
		q.Options = append([]byte(nil), p.Options...)
	}
	if p.Payload != nil {
		q.Payload = append([]byte(nil), p.Payload...)
	}
	return q
}

func (p *Packet) String() string {
	return fmt.Sprintf("IPv4{%s > %s proto=%d ttl=%d len=%d id=%d}",
		p.Src, p.Dst, p.Protocol, p.TTL, p.TotalLen(), p.ID)
}

// Checksum computes the Internet checksum (RFC 1071) of b.
func Checksum(b []byte) uint16 {
	var sum uint32
	for len(b) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// Marshal serializes the packet into wire format, computing the header
// checksum. It returns an error if the packet would exceed the IPv4 total
// length limit or the options are too long.
//
// Marshal allocates a fresh buffer per call. Hot paths (per-hop framing,
// tunnel encapsulation) must use AppendMarshal into a pooled buffer
// instead; the hotpathalloc analyzer enforces this in the datapath
// packages (internal/netsim, internal/stack, internal/encap and others).
func (p *Packet) Marshal() ([]byte, error) {
	b, err := p.AppendMarshal(nil)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// AppendMarshal appends the packet's wire format to dst (growing it if
// needed) and returns the extended slice. The output bytes are identical to
// Marshal's; the only difference is buffer ownership — the caller brings
// the storage, so a pooled or stack-resident dst makes serialization
// allocation-free.
func (p *Packet) AppendMarshal(dst []byte) ([]byte, error) {
	optLen := (len(p.Options) + 3) &^ 3
	if optLen > 40 {
		return dst, fmt.Errorf("ipv4: options too long (%d bytes)", len(p.Options))
	}
	hlen := HeaderLen + optLen
	total := hlen + len(p.Payload)
	if total > MaxTotalLen {
		return dst, fmt.Errorf("ipv4: packet too large (%d bytes)", total)
	}
	start := len(dst)
	if cap(dst)-start < total {
		grown := make([]byte, start, start+total)
		copy(grown, dst)
		dst = grown
	}
	b := dst[start : start+total]
	b[0] = 4<<4 | uint8(hlen/4)
	b[1] = p.TOS
	binary.BigEndian.PutUint16(b[2:], uint16(total))
	binary.BigEndian.PutUint16(b[4:], p.ID)
	ff := p.FragOffset & 0x1fff
	if p.DontFrag {
		ff |= flagDF
	}
	if p.MoreFrags {
		ff |= flagMF
	}
	binary.BigEndian.PutUint16(b[6:], ff)
	b[8] = p.TTL
	b[9] = p.Protocol
	b[10], b[11] = 0, 0
	copy(b[12:16], p.Src[:])
	copy(b[16:20], p.Dst[:])
	if optLen > 0 {
		n := copy(b[HeaderLen:hlen], p.Options)
		for i := HeaderLen + n; i < hlen; i++ {
			b[i] = 0 // pad options to a 4-byte multiple
		}
	}
	binary.BigEndian.PutUint16(b[10:], Checksum(b[:hlen]))
	copy(b[hlen:], p.Payload)
	return dst[:start+total], nil
}

// Unmarshal parses wire format into a Packet, validating the version,
// header length, total length and checksum. The payload slice aliases b.
func Unmarshal(b []byte) (Packet, error) {
	var p Packet
	if len(b) < HeaderLen {
		return p, fmt.Errorf("ipv4: truncated header (%d bytes)", len(b))
	}
	if b[0]>>4 != 4 {
		return p, fmt.Errorf("ipv4: bad version %d", b[0]>>4)
	}
	hlen := int(b[0]&0x0f) * 4
	if hlen < HeaderLen || hlen > len(b) {
		return p, fmt.Errorf("ipv4: bad header length %d", hlen)
	}
	total := int(binary.BigEndian.Uint16(b[2:]))
	if total < hlen || total > len(b) {
		return p, fmt.Errorf("ipv4: bad total length %d (have %d)", total, len(b))
	}
	if Checksum(b[:hlen]) != 0 {
		return p, fmt.Errorf("ipv4: header checksum mismatch")
	}
	p.TOS = b[1]
	p.ID = binary.BigEndian.Uint16(b[4:])
	ff := binary.BigEndian.Uint16(b[6:])
	p.DontFrag = ff&flagDF != 0
	p.MoreFrags = ff&flagMF != 0
	p.FragOffset = ff & 0x1fff
	p.TTL = b[8]
	p.Protocol = b[9]
	copy(p.Src[:], b[12:16])
	copy(p.Dst[:], b[16:20])
	if hlen > HeaderLen {
		p.Options = b[HeaderLen:hlen]
	}
	p.Payload = b[hlen:total]
	return p, nil
}

// PseudoHeaderChecksum computes the partial checksum over the IPv4
// pseudo-header used by UDP and TCP: src, dst, zero, protocol, length.
// The result is NOT complemented; fold it into the transport checksum.
func PseudoHeaderChecksum(src, dst Addr, proto uint8, length int) uint32 {
	var sum uint32
	sum += uint32(binary.BigEndian.Uint16(src[0:2]))
	sum += uint32(binary.BigEndian.Uint16(src[2:4]))
	sum += uint32(binary.BigEndian.Uint16(dst[0:2]))
	sum += uint32(binary.BigEndian.Uint16(dst[2:4]))
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

// TransportChecksum computes a UDP/TCP checksum over the pseudo-header and
// the transport segment b (whose checksum field must be zeroed by the
// caller).
func TransportChecksum(src, dst Addr, proto uint8, b []byte) uint16 {
	sum := PseudoHeaderChecksum(src, dst, proto, len(b))
	for len(b) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	cs := ^uint16(sum)
	if cs == 0 {
		cs = 0xffff // per RFC 768: transmitted as all ones
	}
	return cs
}
