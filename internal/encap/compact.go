package encap

import (
	"encoding/binary"
	"fmt"

	"mob4x4/internal/ipv4"
)

// Compact is the route-optimization header-compression extension of
// Minimal Encapsulation: where minenc always carries the original
// destination (8 or 12 bytes), compact elides every inner address the
// decapsulating endpoint can reconstruct, shrinking the forwarding
// header to as little as 4 bytes:
//
//	b[0]   original protocol
//	b[1]   flags (src present / dst present / dst-is-home)
//	b[2:4] header checksum
//	b[4:8] original destination (only when dst present)
//	next 4 original source      (only when src present)
//
// Elision rules, applied per packet:
//
//   - The original source is omitted when it equals the outer source
//     (minenc's rule).
//   - The original destination is omitted when it equals the outer
//     destination — the Out-DE/In-DT shape, where the tunnel already
//     ends at the inner destination.
//   - The original destination is omitted with the dst-is-home flag
//     when it equals the tunnel's mobile home address — the binding
//     tunnel shape (HA or smart correspondent tunneling home-addressed
//     traffic to a care-of address). The encapsulator passes the home
//     to AppendEncap (it knows the binding); the decapsulating mobile
//     endpoint restores its own configured Home. Both ends of a
//     binding tunnel therefore agree by construction; a decapsulator
//     without a Home rejects the flag instead of guessing.
//
// Like minimal encapsulation, compact cannot carry fragments or IP
// options. Overhead: 4–12 bytes (vs IPIP's 20).
type Compact struct {
	// Home, when non-zero, is the mobile home address this endpoint
	// encapsulates for and restores on decapsulation of dst-is-home
	// headers. Mobile nodes set it; agents and correspondents state the
	// per-binding home in each AppendEncap call instead.
	Home ipv4.Addr
}

const (
	compactSrcPresent = 0x80 // original source follows the header
	compactDstPresent = 0x40 // original destination follows the header
	compactDstHome    = 0x20 // original destination is the mobile's home
)

// Name implements Codec.
func (Compact) Name() string { return "compact" }

// Proto implements Codec.
func (Compact) Proto() uint8 { return ipv4.ProtoCompact }

// Overhead implements Codec.
func (Compact) Overhead() int { return 12 } // worst case: both addresses present

// AppendEncap implements Codec. home is the binding's mobile home
// address, enabling dst elision for home-addressed inner packets; a zero
// home falls back to c.Home. The decapsulating endpoint must be
// configured with the same Home.
func (c Compact) AppendEncap(inner ipv4.Packet, src, dst, home ipv4.Addr, buf []byte) (ipv4.Packet, error) {
	if home.IsZero() {
		home = c.Home
	}
	if inner.MoreFrags || inner.FragOffset != 0 {
		return ipv4.Packet{}, fmt.Errorf("encap/compact: cannot encapsulate fragments")
	}
	if len(inner.Options) > 0 {
		return ipv4.Packet{}, fmt.Errorf("encap/compact: cannot carry IP options")
	}
	var flags uint8
	hlen := 4
	switch {
	case inner.Dst == dst:
		// The tunnel ends at the inner destination; the outer header
		// already carries it exactly.
	case !home.IsZero() && inner.Dst == home:
		flags |= compactDstHome
	default:
		flags |= compactDstPresent
		hlen += 4
	}
	srcPresent := inner.Src != src
	if srcPresent {
		flags |= compactSrcPresent
	}
	start := len(buf)
	need := hlen
	if srcPresent {
		need += 4
	}
	b := grow(buf, need+len(inner.Payload))[start:]
	b[0] = inner.Protocol
	b[1] = flags
	b[2], b[3] = 0, 0
	if flags&compactDstPresent != 0 {
		copy(b[4:8], inner.Dst[:])
	}
	if srcPresent {
		copy(b[hlen:hlen+4], inner.Src[:])
		hlen += 4
	}
	copy(b[hlen:], inner.Payload)
	binary.BigEndian.PutUint16(b[2:], ipv4.Checksum(b[:hlen]))
	return ipv4.Packet{
		Header: ipv4.Header{
			Protocol: ipv4.ProtoCompact,
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
func (c Compact) Decapsulate(outer ipv4.Packet) (ipv4.Packet, error) {
	if outer.Protocol != ipv4.ProtoCompact {
		return ipv4.Packet{}, fmt.Errorf("encap/compact: outer protocol %d is not compact encapsulation", outer.Protocol)
	}
	b := outer.Payload
	if len(b) < 4 {
		return ipv4.Packet{}, fmt.Errorf("encap/compact: truncated header (%d bytes)", len(b))
	}
	flags := b[1]
	if flags&compactDstPresent != 0 && flags&compactDstHome != 0 {
		return ipv4.Packet{}, fmt.Errorf("encap/compact: dst-present and dst-is-home are mutually exclusive")
	}
	hlen := 4
	if flags&compactDstPresent != 0 {
		hlen += 4
	}
	srcOff := hlen
	if flags&compactSrcPresent != 0 {
		hlen += 4
	}
	if len(b) < hlen {
		return ipv4.Packet{}, fmt.Errorf("encap/compact: truncated header (%d bytes)", len(b))
	}
	if ipv4.Checksum(b[:hlen]) != 0 {
		return ipv4.Packet{}, fmt.Errorf("encap/compact: header checksum mismatch")
	}
	inner := ipv4.Packet{
		Header: ipv4.Header{
			Protocol: b[0],
			TTL:      outer.TTL,
			TOS:      outer.TOS,
			ID:       outer.ID,
			Src:      outer.Src,
			Dst:      outer.Dst,
		},
		Payload: b[hlen:],
		TraceID: outer.TraceID,
	}
	switch {
	case flags&compactDstPresent != 0:
		copy(inner.Dst[:], b[4:8])
	case flags&compactDstHome != 0:
		if c.Home.IsZero() {
			return ipv4.Packet{}, fmt.Errorf("encap/compact: dst-is-home header at an endpoint with no home configured")
		}
		inner.Dst = c.Home
	}
	if flags&compactSrcPresent != 0 {
		copy(inner.Src[:], b[srcOff:srcOff+4])
	}
	return inner, nil
}
