// Package encap implements the three IP-within-IP encapsulation schemes
// discussed by the paper: plain IP-in-IP ([Per96c], later RFC 2003),
// Minimal Encapsulation ([Per95], later RFC 2004) and Generic Routing
// Encapsulation ([RFC1702]). Section 2 notes that the ~20-byte overhead of
// full encapsulation "can be minimized by use of Generic Routing
// Encapsulation or Minimal Encapsulation"; the per-scheme Overhead
// methods and BenchmarkCodecs quantify that trade-off.
package encap

import (
	"encoding/binary"
	"fmt"

	"mob4x4/internal/ipv4"
)

// Codec encapsulates and decapsulates IP packets for tunneling.
type Codec interface {
	// Name identifies the scheme ("ipip", "minenc", "gre", "compact").
	Name() string
	// Proto is the IPv4 protocol number carried in the outer header.
	Proto() uint8
	// Overhead is the number of bytes the scheme adds to a packet
	// (outer header + scheme header, if any).
	Overhead() int
	// AppendEncap wraps inner in an outer packet from src to dst,
	// writing the tunnel payload into buf (appending, growing it only if
	// needed): the returned outer packet's Payload references the
	// appended bytes. The caller owns buf and must keep it alive — and
	// unrecycled — for as long as the outer packet is in use; a nil buf
	// allocates a fresh payload. home is the tunnel's mobile home
	// address, or zero when there is none: a tunnel entry point that
	// knows its binding (home agent, smart correspondent, regional
	// gateway) states it so a home-aware codec (Compact) can elide a
	// home-addressed inner destination. The other codecs ignore it.
	AppendEncap(inner ipv4.Packet, src, dst, home ipv4.Addr, buf []byte) (ipv4.Packet, error)
	// Decapsulate extracts the inner packet from an outer packet
	// previously produced by this codec. Decapsulation is in-place:
	// the inner packet's Payload aliases outer.Payload (no copy), so
	// the inner packet lives only as long as the outer buffer.
	Decapsulate(outer ipv4.Packet) (ipv4.Packet, error)
}

// ByName returns the codec for a scheme name.
func ByName(name string) (Codec, error) {
	switch name {
	case "ipip":
		return IPIP{}, nil
	case "minenc":
		return MinEnc{}, nil
	case "gre":
		return GRE{}, nil
	case "compact":
		return Compact{}, nil
	default:
		return nil, fmt.Errorf("encap: unknown scheme %q", name)
	}
}

// All returns every codec, for sweeps and ablations.
func All() []Codec { return []Codec{IPIP{}, MinEnc{}, GRE{}, Compact{}} }

// grow extends b by n bytes, reallocating at most once, and returns the
// extended slice. The new bytes are uninitialized (pooled buffers carry
// stale contents); callers must write every one of them.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) < n {
		nb := make([]byte, len(b), len(b)+n)
		copy(nb, b)
		b = nb
	}
	return b[:len(b)+n]
}

// IPIP is full IP-in-IP encapsulation: the entire original packet,
// header included, becomes the payload of a fresh IPv4 header.
// Overhead: 20 bytes (the paper's headline number in Section 3.3).
type IPIP struct{}

// Name implements Codec.
func (IPIP) Name() string { return "ipip" }

// Proto implements Codec.
func (IPIP) Proto() uint8 { return ipv4.ProtoIPIP }

// Overhead implements Codec.
func (IPIP) Overhead() int { return ipv4.HeaderLen }

// AppendEncap implements Codec.
func (IPIP) AppendEncap(inner ipv4.Packet, src, dst, _ ipv4.Addr, buf []byte) (ipv4.Packet, error) {
	start := len(buf)
	b, err := inner.AppendMarshal(buf)
	if err != nil {
		return ipv4.Packet{}, fmt.Errorf("encap/ipip: %w", err)
	}
	return ipv4.Packet{
		Header: ipv4.Header{
			Protocol: ipv4.ProtoIPIP,
			Src:      src,
			Dst:      dst,
			TTL:      inner.TTL, // outer TTL copied from inner on entry (RFC 2003 §3.1)
		},
		Payload: b[start:],
		TraceID: inner.TraceID,
	}, nil
}

// Decapsulate implements Codec.
func (IPIP) Decapsulate(outer ipv4.Packet) (ipv4.Packet, error) {
	if outer.Protocol != ipv4.ProtoIPIP {
		return ipv4.Packet{}, fmt.Errorf("encap/ipip: outer protocol %d is not IPIP", outer.Protocol)
	}
	inner, err := ipv4.Unmarshal(outer.Payload)
	if err != nil {
		return ipv4.Packet{}, fmt.Errorf("encap/ipip: bad inner packet: %w", err)
	}
	inner.TraceID = outer.TraceID
	return inner, nil
}

// MinEnc is Minimal Encapsulation ([Per95]): instead of a full inner IP
// header, a compressed 8- or 12-byte forwarding header carries only the
// fields the outer header cannot (original destination, original protocol,
// and — if it differs from the outer source — the original source).
// Overhead: 8 bytes when the original source is preserved in the outer
// header, 12 bytes otherwise. Minimal encapsulation cannot carry
// already-fragmented packets.
type MinEnc struct{}

// Name implements Codec.
func (MinEnc) Name() string { return "minenc" }

// Proto implements Codec.
func (MinEnc) Proto() uint8 { return ipv4.ProtoMinEnc }

// Overhead implements Codec.
func (MinEnc) Overhead() int { return 12 } // worst case: source present

const minEncSrcPresent = 0x80

// AppendEncap implements Codec.
func (MinEnc) AppendEncap(inner ipv4.Packet, src, dst, _ ipv4.Addr, buf []byte) (ipv4.Packet, error) {
	if inner.MoreFrags || inner.FragOffset != 0 {
		return ipv4.Packet{}, fmt.Errorf("encap/minenc: cannot encapsulate fragments")
	}
	if len(inner.Options) > 0 {
		return ipv4.Packet{}, fmt.Errorf("encap/minenc: cannot carry IP options")
	}
	srcPresent := inner.Src != src
	hlen := 8
	if srcPresent {
		hlen = 12
	}
	start := len(buf)
	b := grow(buf, hlen+len(inner.Payload))[start:]
	b[0] = inner.Protocol
	b[1] = 0
	if srcPresent {
		b[1] = minEncSrcPresent
	}
	b[2], b[3] = 0, 0
	copy(b[4:8], inner.Dst[:])
	if srcPresent {
		copy(b[8:12], inner.Src[:])
	}
	copy(b[hlen:], inner.Payload)
	binary.BigEndian.PutUint16(b[2:], ipv4.Checksum(b[:hlen]))
	return ipv4.Packet{
		Header: ipv4.Header{
			Protocol: ipv4.ProtoMinEnc,
			Src:      src,
			Dst:      dst,
			TTL:      inner.TTL,
			TOS:      inner.TOS,
			ID:       inner.ID,
		},
		Payload: b,
		TraceID: inner.TraceID,
	}, nil
}

// Decapsulate implements Codec.
func (MinEnc) Decapsulate(outer ipv4.Packet) (ipv4.Packet, error) {
	if outer.Protocol != ipv4.ProtoMinEnc {
		return ipv4.Packet{}, fmt.Errorf("encap/minenc: outer protocol %d is not minimal encapsulation", outer.Protocol)
	}
	b := outer.Payload
	if len(b) < 8 {
		return ipv4.Packet{}, fmt.Errorf("encap/minenc: truncated header (%d bytes)", len(b))
	}
	srcPresent := b[1]&minEncSrcPresent != 0
	hlen := 8
	if srcPresent {
		hlen = 12
	}
	if len(b) < hlen {
		return ipv4.Packet{}, fmt.Errorf("encap/minenc: truncated header (%d bytes)", len(b))
	}
	if ipv4.Checksum(b[:hlen]) != 0 {
		return ipv4.Packet{}, fmt.Errorf("encap/minenc: header checksum mismatch")
	}
	inner := ipv4.Packet{
		Header: ipv4.Header{
			Protocol: b[0],
			TTL:      outer.TTL,
			TOS:      outer.TOS,
			ID:       outer.ID,
			Src:      outer.Src,
		},
		Payload: b[hlen:],
		TraceID: outer.TraceID,
	}
	copy(inner.Dst[:], b[4:8])
	if srcPresent {
		copy(inner.Src[:], b[8:12])
	}
	return inner, nil
}

// GRE is Generic Routing Encapsulation ([RFC1702]) with an optional key.
// The base GRE header is 4 bytes; with the key present it is 8, for a
// total overhead of 24 or 28 bytes over the inner packet.
type GRE struct {
	// Key, when non-zero, is carried in the GRE key field (tunnel
	// multiplexing; the simulation uses it to label bindings).
	Key uint32
}

// Name implements Codec.
func (GRE) Name() string { return "gre" }

// Proto implements Codec.
func (GRE) Proto() uint8 { return ipv4.ProtoGRE }

// Overhead implements Codec.
func (g GRE) Overhead() int {
	if g.Key != 0 {
		return ipv4.HeaderLen + 8
	}
	return ipv4.HeaderLen + 4
}

const greKeyPresent = 0x2000

// AppendEncap implements Codec. It writes the GRE header and the
// marshalled inner packet into one buffer directly.
func (g GRE) AppendEncap(inner ipv4.Packet, src, dst, _ ipv4.Addr, buf []byte) (ipv4.Packet, error) {
	hlen := 4
	var flags uint16
	if g.Key != 0 {
		hlen = 8
		flags |= greKeyPresent
	}
	start := len(buf)
	withHdr := grow(buf, hlen)
	b, err := inner.AppendMarshal(withHdr)
	if err != nil {
		return ipv4.Packet{}, fmt.Errorf("encap/gre: %w", err)
	}
	b = b[start:]
	binary.BigEndian.PutUint16(b[0:], flags)
	binary.BigEndian.PutUint16(b[2:], 0x0800) // protocol type: IPv4
	if g.Key != 0 {
		binary.BigEndian.PutUint32(b[4:], g.Key)
	}
	return ipv4.Packet{
		Header: ipv4.Header{
			Protocol: ipv4.ProtoGRE,
			Src:      src,
			Dst:      dst,
			TTL:      inner.TTL,
		},
		Payload: b,
		TraceID: inner.TraceID,
	}, nil
}

// Decapsulate implements Codec.
func (g GRE) Decapsulate(outer ipv4.Packet) (ipv4.Packet, error) {
	if outer.Protocol != ipv4.ProtoGRE {
		return ipv4.Packet{}, fmt.Errorf("encap/gre: outer protocol %d is not GRE", outer.Protocol)
	}
	b := outer.Payload
	if len(b) < 4 {
		return ipv4.Packet{}, fmt.Errorf("encap/gre: truncated header")
	}
	flags := binary.BigEndian.Uint16(b[0:])
	if ptype := binary.BigEndian.Uint16(b[2:]); ptype != 0x0800 {
		return ipv4.Packet{}, fmt.Errorf("encap/gre: unsupported protocol type %#04x", ptype)
	}
	hlen := 4
	if flags&greKeyPresent != 0 {
		hlen = 8
		if len(b) < hlen {
			return ipv4.Packet{}, fmt.Errorf("encap/gre: truncated key")
		}
		if g.Key != 0 && binary.BigEndian.Uint32(b[4:]) != g.Key {
			return ipv4.Packet{}, fmt.Errorf("encap/gre: key mismatch")
		}
	}
	inner, err := ipv4.Unmarshal(b[hlen:])
	if err != nil {
		return ipv4.Packet{}, fmt.Errorf("encap/gre: bad inner packet: %w", err)
	}
	inner.TraceID = outer.TraceID
	return inner, nil
}
