// Package ipv4 implements the IPv4 wire format used throughout the
// simulated internetwork: addresses and prefixes, header
// marshalling/unmarshalling with the Internet checksum, and
// fragmentation/reassembly. The codec style follows the conventions of
// packet libraries such as gopacket: explicit typed layers, strict
// validation on decode, and allocation-conscious serialization.
package ipv4

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in network byte order. Addr is a comparable value
// type so it can key maps (delivery-method caches, binding tables, ARP
// caches) directly.
type Addr [4]byte

// Zero is the unspecified address 0.0.0.0.
var Zero Addr

// Broadcast is the limited broadcast address 255.255.255.255.
var Broadcast = Addr{255, 255, 255, 255}

// AddrFrom returns the address a.b.c.d.
func AddrFrom(a, b, c, d byte) Addr { return Addr{a, b, c, d} }

// ParseAddr parses dotted-quad notation ("36.22.0.5").
func ParseAddr(s string) (Addr, error) {
	var a Addr
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return Zero, fmt.Errorf("ipv4: invalid address %q", s)
	}
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 || (len(p) > 1 && p[0] == '0') {
			return Zero, fmt.Errorf("ipv4: invalid address %q", s)
		}
		a[i] = byte(v)
	}
	return a, nil
}

// MustParseAddr is ParseAddr that panics on error, for tests and literals.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Uint32 returns the address as a big-endian 32-bit integer.
func (a Addr) Uint32() uint32 {
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}

// AddrFromUint32 converts a big-endian 32-bit integer to an address.
func AddrFromUint32(v uint32) Addr {
	return Addr{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// IsZero reports whether a is the unspecified address.
func (a Addr) IsZero() bool { return a == Zero }

// IsBroadcast reports whether a is the limited broadcast address.
func (a Addr) IsBroadcast() bool { return a == Broadcast }

// IsMulticast reports whether a is in 224.0.0.0/4 (class D).
func (a Addr) IsMulticast() bool { return a[0]&0xf0 == 0xe0 }

// IsLoopback reports whether a is in 127.0.0.0/8.
func (a Addr) IsLoopback() bool { return a[0] == 127 }

// Less orders addresses numerically; useful for deterministic iteration.
func (a Addr) Less(b Addr) bool { return a.Uint32() < b.Uint32() }

// Next returns the numerically following address. It wraps at the top of
// the address space.
func (a Addr) Next() Addr { return AddrFromUint32(a.Uint32() + 1) }

func (a Addr) String() string {
	var buf [15]byte
	return string(a.AppendText(buf[:0]))
}

// AppendText appends the dotted-quad form of a to b and returns the
// extended slice. Trace-detail builders use it to format addresses without
// the fmt machinery (no interface boxing, one allocation for the final
// string instead of five).
func (a Addr) AppendText(b []byte) []byte {
	for i, v := range a {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(v), 10)
	}
	return b
}

// Prefix is a CIDR-style routing prefix.
type Prefix struct {
	Addr Addr
	Bits int // 0..32
}

// PrefixFrom returns the prefix addr/bits with the address masked down to
// the prefix (host bits cleared).
func PrefixFrom(addr Addr, bits int) Prefix {
	if bits < 0 {
		bits = 0
	}
	if bits > 32 {
		bits = 32
	}
	return Prefix{Addr: AddrFromUint32(addr.Uint32() & maskFor(bits)), Bits: bits}
}

// ParsePrefix parses "a.b.c.d/n".
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("ipv4: invalid prefix %q (missing /)", s)
	}
	addr, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("ipv4: invalid prefix length in %q", s)
	}
	return PrefixFrom(addr, bits), nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

func maskFor(bits int) uint32 {
	if bits <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - uint(bits))
}

// Mask returns the prefix's network mask as a host-order word.
func (p Prefix) Mask() uint32 { return maskFor(p.Bits) }

// Contains reports whether addr falls inside the prefix.
func (p Prefix) Contains(addr Addr) bool {
	return addr.Uint32()&p.Mask() == p.Addr.Uint32()&p.Mask()
}

// Overlaps reports whether the two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	bits := p.Bits
	if q.Bits < bits {
		bits = q.Bits
	}
	m := maskFor(bits)
	return p.Addr.Uint32()&m == q.Addr.Uint32()&m
}

// BroadcastAddr returns the directed broadcast address of the prefix.
func (p Prefix) BroadcastAddr() Addr {
	return AddrFromUint32(p.Addr.Uint32() | ^maskFor(p.Bits))
}

// Host returns the n'th host address within the prefix (1-based; Host(1) is
// the first usable address after the network address).
func (p Prefix) Host(n int) Addr {
	return AddrFromUint32(p.Addr.Uint32() + uint32(n))
}

func (p Prefix) String() string {
	var buf [18]byte
	b := p.Addr.AppendText(buf[:0])
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(p.Bits), 10)
	return string(b)
}
