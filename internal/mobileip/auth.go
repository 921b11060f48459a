package mobileip

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"hash"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/vtime"
)

// Mobile-home authentication extension (RFC 3220 §3.5.2 lineage, the
// mechanism PAPERS.md's authentication-extension paper grafts onto
// [Per96a]'s port-434 messages). The extension trails the fixed-size
// registration message:
//
//	+------+--------+---------+----------------+
//	| type | length |   SPI   |      MAC       |
//	|  32  |   20   | 4 bytes |    16 bytes    |
//	+------+--------+---------+----------------+
//
// The MAC is HMAC-SHA256 truncated to 16 bytes, computed over every byte
// that precedes it on the wire: the base message plus the extension's
// type, length, and SPI fields. The strict-length Unmarshal/ParseRequest
// contract (exactly base or base+extension, nothing else) is what makes
// "every byte that precedes it" well defined — no unauthenticated
// trailing bytes can ride along.
const (
	// AuthExtType identifies the mobile-home authentication extension.
	AuthExtType uint8 = 32
	// authMACLen is the truncated HMAC-SHA256 length carried on the wire.
	authMACLen = 16
	// authExtPayloadLen is the extension's length field: SPI + MAC.
	authExtPayloadLen = 4 + authMACLen
	// authExtLen is the full on-wire extension size.
	authExtLen = 2 + authExtPayloadLen
	// AuthExtLen exports the full on-wire extension size for other
	// packages framing authenticated messages with the same extension
	// (internal/routeopt's binding updates).
	AuthExtLen = authExtLen
)

// AuthExt is the decoded authenticator extension.
type AuthExt struct {
	SPI uint32
	MAC [authMACLen]byte
}

// AppendMarshal appends the serialized extension to dst and returns the
// extended slice.
func (a *AuthExt) AppendMarshal(dst []byte) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, authExtLen)...)
	b := dst[n:]
	b[0] = AuthExtType
	b[1] = authExtPayloadLen
	binary.BigEndian.PutUint32(b[2:], a.SPI)
	copy(b[6:], a.MAC[:])
	return dst
}

// Unmarshal decodes an extension in place. Exactly authExtLen bytes are
// required: truncated or oversized extensions are rejected, never
// panicked over (fuzz invariant).
func (a *AuthExt) Unmarshal(b []byte) bool {
	if len(b) != authExtLen || b[0] != AuthExtType || b[1] != authExtPayloadLen {
		return false
	}
	a.SPI = binary.BigEndian.Uint32(b[2:])
	copy(a.MAC[:], b[6:])
	return true
}

// Authenticator is one mobility security association: an SPI naming the
// shared key plus a preallocated HMAC state. Sign and Verify reuse that
// state and a fixed scratch array, so the steady-state authenticated
// renewal path allocates nothing. An Authenticator belongs to a single
// simulation entity (a requester, or one verifier's Keys) and is not
// safe for concurrent use — exactly the ownership discipline every
// per-node state in this repo already follows.
type Authenticator struct {
	spi     uint32
	mac     hash.Hash
	scratch [sha256.Size]byte
}

// NewAuthenticator builds the security association for (spi, key). The
// key bytes are absorbed into the HMAC state here, once.
func NewAuthenticator(spi uint32, key []byte) *Authenticator {
	return &Authenticator{spi: spi, mac: hmac.New(sha256.New, key)}
}

// SPI returns the association's security parameter index.
func (a *Authenticator) SPI() uint32 { return a.spi }

// AppendAuth appends the authentication extension to msg — which must
// hold the complete marshaled base message — and returns the extended
// slice. The MAC covers msg plus the extension's type/length/SPI header,
// i.e. exactly the bytes that precede the MAC on the wire. A nil
// Authenticator (no association) returns msg unchanged.
func (a *Authenticator) AppendAuth(msg []byte) []byte {
	if a == nil {
		return msg
	}
	msg = append(msg, AuthExtType, authExtPayloadLen)
	msg = binary.BigEndian.AppendUint32(msg, a.spi)
	a.mac.Reset()
	a.mac.Write(msg)
	sum := a.mac.Sum(a.scratch[:0])
	return append(msg, sum[:authMACLen]...)
}

// Verify checks a full on-wire message (base || extension) against this
// association: the extension must parse, name our SPI, and carry a MAC
// matching the preceding bytes. Comparison is constant-time; state is
// not modified, so a failed Verify leaves no trace an attacker could
// probe.
func (a *Authenticator) Verify(msg []byte) bool {
	if len(msg) < authExtLen {
		return false
	}
	extOff := len(msg) - authExtLen
	var ext AuthExt
	if !ext.Unmarshal(msg[extOff:]) || ext.SPI != a.spi {
		return false
	}
	a.mac.Reset()
	a.mac.Write(msg[:len(msg)-authMACLen])
	sum := a.mac.Sum(a.scratch[:0])
	return subtle.ConstantTimeCompare(sum[:authMACLen], ext.MAC[:]) == 1
}

// Accepts is a requester's check of an incoming reply or ack: with no
// association (nil) everything passes; under one, the message must carry
// an authenticator that verifies. A forged denial must not end an
// exchange, so a requester drops whatever this refuses.
func (a *Authenticator) Accepts(msg []byte, hasAuth bool) bool {
	return a == nil || hasAuth && a.Verify(msg)
}

// IDClock issues a requester's identifications: the current virtual
// time in nanoseconds, forced strictly monotone ([Per96a]'s
// timestamp-style identification). Monotonicity is what the verifier's
// replay window orders by; the vtime base means the IDs of a replayed
// old message fall behind the window (auth_stale_id) rather than merely
// colliding with it. The zero value is ready to use.
type IDClock struct{ last uint64 }

// Next returns a fresh identification for a message sent at now.
func (c *IDClock) Next(now vtime.Time) uint64 {
	c.last = max(uint64(now), c.last+1)
	return c.last
}

// Last returns the most recent identification Next issued.
func (c *IDClock) Last() uint64 { return c.last }

// Verdict classifies one message against a verifier's Keys.
type Verdict uint8

const (
	// Unsigned: the home has no association and none is required; the
	// verifier applies its legacy trust-the-sender rules.
	Unsigned Verdict = iota
	// Verified: the MAC verified and the identification was fresh; the
	// window has advanced.
	Verified
	// Unknown: the home has no association but the verifier requires
	// authentication (RequireAuth).
	Unknown
	// BadMAC: missing, forged or tampered authenticator (auth_bad_mac).
	BadMAC
	// Replay: identification already accepted inside the window
	// (auth_replay).
	Replay
	// Stale: identification behind the window (auth_stale_id).
	Stale
)

// Code is the reply code that refuses a message with verdict v
// (CodeAccepted for Unsigned and Verified). Binding-update acks share the
// values.
func (v Verdict) Code() uint8 {
	switch v {
	case Unknown, BadMAC:
		return CodeDeniedAuthFailed
	case Replay:
		return CodeDeniedReplay
	case Stale:
		return CodeDeniedStaleID
	}
	return CodeAccepted
}

// association is one provisioned mobility security association at a
// verifier: the shared-key authenticator plus the sliding identification
// window. The key is configuration and survives a crash; the window is
// soft state and does not.
type association struct {
	auth   *Authenticator
	window replayWindow
}

// Keys is a verifier's table of mobility security associations, keyed
// by home address. The home agent, the regional gateway and the
// binding-update receiver each hold one and apply the same rule through
// Check: the MAC first, then the window. Lookups are point lookups; the
// table is iterated only by ForgetWindows.
type Keys struct {
	// required refuses homes with no association (Unknown) instead of
	// passing them as Unsigned. NewKeys sets it from the verifier's
	// RequireAuth; nothing changes it afterwards.
	required bool

	assoc map[ipv4.Addr]*association
	reg   *metrics.Registry // where Check counts its drops
}

// NewKeys returns an empty table that counts drops into reg. A verifier
// holds it by value; the table allocates at its first Provision.
func NewKeys(reg *metrics.Registry, required bool) Keys {
	return Keys{required: required, reg: reg}
}

// Provision installs the association for a home address: messages for
// it must from now on carry a valid authenticator under (spi, key), and
// replies to it are signed with the same association. Provisioning is
// configuration, done at build time.
func (k *Keys) Provision(home ipv4.Addr, spi uint32, key []byte) {
	if k.assoc == nil {
		k.assoc = make(map[ipv4.Addr]*association)
	}
	k.assoc[home] = &association{auth: NewAuthenticator(spi, key)}
}

// Signer returns the authenticator that signs replies for home, nil when
// the home has no association (AppendAuth on nil adds nothing).
func (k *Keys) Signer(home ipv4.Addr) *Authenticator {
	if as := k.assoc[home]; as != nil {
		return as.auth
	}
	return nil
}

// Check classifies a full on-wire message for home carrying
// identification id, counting BadMAC, Replay and Stale under their drop
// causes. The window advances only on Verified: advancing it on a
// forgery would let an attacker burn identifications the real node
// still needs. Unsigned and Unknown count nothing; the caller decides.
func (k *Keys) Check(home ipv4.Addr, msg []byte, hasAuth bool, id uint64) Verdict {
	as := k.assoc[home]
	switch {
	case as == nil && k.required:
		return Unknown
	case as == nil:
		return Unsigned
	case !hasAuth || !as.auth.Verify(msg):
		k.reg.Drop(metrics.DropAuthBadMAC)
		return BadMAC
	}
	v := as.window.check(id)
	switch v {
	case Replay:
		k.reg.Drop(metrics.DropAuthReplay)
	case Stale:
		k.reg.Drop(metrics.DropAuthStaleID)
	}
	return v
}

// ForgetWindows resets every replay window: a crashed verifier's soft
// state dies while its keys survive.
func (k *Keys) ForgetWindows() {
	//mob4x4vet:allow mapiter per-key window resets touch disjoint state; order cannot leak
	for _, as := range k.assoc {
		as.window = replayWindow{}
	}
}

// replayWindow is the sliding identification window of RFC 3220 §5.7
// style replay protection: the highest identification accepted so far
// plus a 64-bit bitmap over the 64 identifications at and below it.
// Identifications are vtime-derived and strictly monotone per mobile
// node, so in the common case every check is a shift-and-accept.
type replayWindow struct {
	lastID uint64
	bitmap uint64 // bit i set => lastID-i was accepted
}

// check classifies id as Verified (fresh; marked as seen), Replay or
// Stale. Callers must verify the message's MAC first.
func (w *replayWindow) check(id uint64) Verdict {
	switch {
	case id > w.lastID:
		if shift := id - w.lastID; shift >= 64 {
			w.bitmap = 1
		} else {
			w.bitmap = w.bitmap<<shift | 1
		}
		w.lastID = id
		return Verified
	case w.lastID-id >= 64:
		return Stale
	default:
		bit := uint64(1) << (w.lastID - id)
		if w.bitmap&bit != 0 {
			return Replay
		}
		w.bitmap |= bit
		return Verified
	}
}
