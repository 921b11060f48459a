// Package routeopt is the route-optimization tier layered over
// internal/mobileip, reproducing the three optimizations the paper's
// Section 8 leaves as future work and the Route Optimization drafts of
// the era ([Per96b] lineage) specify:
//
//   - Pushed binding updates: on handoff the mobile node (or its home
//     agent, configurably) tells active correspondents the new care-of
//     address directly, instead of waiting for the home agent's ICMP
//     notice on the next triangle-routed packet. Updates are
//     authenticated with the same mobile-home association as
//     registrations, acked, and retransmitted a bounded number of
//     times; a correspondent whose cached binding expires or that nacks
//     an update simply falls back to In-IE triangle routing — a stale
//     cache degrades to correctness, never to a black hole.
//   - Compact encapsulation: internal/encap's route-opt header
//     compression option (encap.Compact) plus the per-mode
//     bytes-on-wire accounting in internal/metrics that lets E17 report
//     header overhead per (Out, In) mode pair.
//   - Hierarchical local registration: a regional gateway agent
//     (RegionalAgent) aggregates the per-cell attachment points of one
//     metro. The home agent sees one stable regional care-of address;
//     intra-metro handoffs register with the regional agent only
//     (LocalRegistrar) and never traverse the home uplink.
//
// Everything here follows the repo's determinism contract: vtime only,
// per-entity state, no map iteration on hot paths, pooled buffers on
// send paths.
package routeopt

import (
	"encoding/binary"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/mobileip"
)

// Binding-update message types (UDP port 435). The numbers continue the
// registration protocol's type space without colliding with it, so a
// misdelivered datagram parses as neither.
const (
	TypeBindingUpdate uint8 = 16
	TypeBindingAck    uint8 = 17
)

// Binding-acknowledgement codes. Denials are the registration
// protocol's code points (the receiver fills them from
// mobileip.Verdict.Code), so traces and metrics tell one story.
const (
	AckAccepted                = mobileip.CodeAccepted
	AckDeniedAuthFailed        = mobileip.CodeDeniedAuthFailed // authenticator missing, malformed, or MAC mismatch
	AckDeniedStaleID           = mobileip.CodeDeniedStaleID    // identification behind the replay window
	AckDeniedReplay            = mobileip.CodeDeniedReplay     // identification already accepted inside the window
	AckDeniedUnknownHome uint8 = 136                           // receiver holds no association for this home
)

// BindingUpdate tells a correspondent where a mobile host is now.
// Lifetime zero with CareOf equal to Home revokes the cached binding
// (the host went home).
type BindingUpdate struct {
	Flags    uint8
	Lifetime uint16 // cache TTL, seconds
	Home     ipv4.Addr
	CareOf   ipv4.Addr
	ID       uint64 // matches acks to updates; replay ordering
}

const bindingUpdateLen = 1 + 1 + 2 + 4 + 4 + 8

// Marshal serializes the update.
func (u *BindingUpdate) Marshal() []byte {
	return u.AppendMarshal(make([]byte, 0, bindingUpdateLen))
}

// AppendMarshal appends the serialized update to dst and returns the
// extended slice — the allocation-free form used on the push path.
func (u *BindingUpdate) AppendMarshal(dst []byte) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, bindingUpdateLen)...)
	b := dst[n:]
	b[0] = TypeBindingUpdate
	b[1] = u.Flags
	binary.BigEndian.PutUint16(b[2:], u.Lifetime)
	copy(b[4:8], u.Home[:])
	copy(b[8:12], u.CareOf[:])
	binary.BigEndian.PutUint64(b[12:], u.ID)
	return dst
}

// Unmarshal decodes a binding update in place. Exactly bindingUpdateLen
// bytes are required — messages that may carry a trailing authentication
// extension go through ParseUpdate, mirroring the registration
// protocol's strict-length contract (no unauthenticated trailing bytes).
func (u *BindingUpdate) Unmarshal(b []byte) bool {
	if len(b) != bindingUpdateLen || b[0] != TypeBindingUpdate {
		return false
	}
	u.Flags = b[1]
	u.Lifetime = binary.BigEndian.Uint16(b[2:])
	copy(u.Home[:], b[4:8])
	copy(u.CareOf[:], b[8:12])
	u.ID = binary.BigEndian.Uint64(b[12:])
	return true
}

// IsRevocation reports whether the update clears the cached binding.
func (u *BindingUpdate) IsRevocation() bool { return u.Lifetime == 0 }

// BindingAck acknowledges (or refuses) a binding update.
type BindingAck struct {
	Code     uint8
	Lifetime uint16 // lifetime actually granted by the receiver
	Home     ipv4.Addr
	ID       uint64
}

const bindingAckLen = 1 + 1 + 2 + 4 + 8

// Marshal serializes the ack.
func (a *BindingAck) Marshal() []byte {
	return a.AppendMarshal(make([]byte, 0, bindingAckLen))
}

// AppendMarshal appends the serialized ack to dst and returns the
// extended slice.
func (a *BindingAck) AppendMarshal(dst []byte) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, bindingAckLen)...)
	b := dst[n:]
	b[0] = TypeBindingAck
	b[1] = a.Code
	binary.BigEndian.PutUint16(b[2:], a.Lifetime)
	copy(b[4:8], a.Home[:])
	binary.BigEndian.PutUint64(b[8:], a.ID)
	return dst
}

// Unmarshal decodes an ack in place; strict length, see
// BindingUpdate.Unmarshal.
func (a *BindingAck) Unmarshal(b []byte) bool {
	if len(b) != bindingAckLen || b[0] != TypeBindingAck {
		return false
	}
	a.Code = b[1]
	a.Lifetime = binary.BigEndian.Uint16(b[2:])
	copy(a.Home[:], b[4:8])
	a.ID = binary.BigEndian.Uint64(b[8:])
	return true
}

// ParseUpdate decodes a binding-update datagram that may carry a
// trailing mobileip authentication extension. ok is true only for
// exactly the base length (hasAuth false) or base+extension with a
// well-formed extension (hasAuth true), so an accepted message's MAC
// provably covers every byte that arrived.
func ParseUpdate(b []byte) (u BindingUpdate, ext mobileip.AuthExt, hasAuth bool, ok bool) {
	switch len(b) {
	case bindingUpdateLen:
	case bindingUpdateLen + mobileip.AuthExtLen:
		if !ext.Unmarshal(b[bindingUpdateLen:]) {
			return u, ext, false, false
		}
		hasAuth = true
	default:
		return u, ext, false, false
	}
	if !u.Unmarshal(b[:bindingUpdateLen]) {
		return u, ext, false, false
	}
	return u, ext, hasAuth, true
}

// ParseAck is ParseUpdate's counterpart for acknowledgements: acks from
// a receiver holding the association are authenticated too, so a forged
// nack cannot silently stop the updater's retransmissions.
func ParseAck(b []byte) (a BindingAck, ext mobileip.AuthExt, hasAuth bool, ok bool) {
	switch len(b) {
	case bindingAckLen:
	case bindingAckLen + mobileip.AuthExtLen:
		if !ext.Unmarshal(b[bindingAckLen:]) {
			return a, ext, false, false
		}
		hasAuth = true
	default:
		return a, ext, false, false
	}
	if !a.Unmarshal(b[:bindingAckLen]) {
		return a, ext, false, false
	}
	return a, ext, hasAuth, true
}
