// Package pcap writes — and minimally reads — classic libpcap capture
// files, with zero dependencies beyond the standard library. A tracer
// sink (see Attach) streams every frame entering a simulated segment
// into a Writer, stamped with the deterministic virtual clock, so any
// experiment can emit a capture that Wireshark/tcpdump open directly. The reader exists for the golden
// tests: it validates exactly the fields a capture consumer depends on
// (magic, endianness, snaplen, link type, per-packet lengths) and
// nothing more.
//
// Only the classic (pre-pcapng) format is implemented, with the
// nanosecond-resolution magic: virtual timestamps are exact nanosecond
// counts and rounding them to microseconds would alias distinct events.
package pcap

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Capture-file constants.
const (
	// MagicNanos is the classic-pcap magic for nanosecond timestamp
	// resolution, written in the producer's byte order.
	MagicNanos = 0xa1b23c4d
	// MagicMicros is the original microsecond-resolution magic. The
	// writer never produces it; the reader accepts it.
	MagicMicros = 0xa1b2c3d4
	// LinkTypeEthernet is the DLT for Ethernet framing (what Attach
	// synthesizes).
	LinkTypeEthernet = 1
	// DefaultSnapLen captures frames in full; segments enforce MTUs far
	// below it.
	DefaultSnapLen = 65535

	fileHeaderLen   = 24
	packetHeaderLen = 16
)

// Writer accumulates one capture in memory. Packets are appended in call
// order; the byte stream is a pure function of that call sequence, so a
// deterministic simulation produces a byte-identical capture every run.
// The writer is not safe for concurrent use — like everything else on a
// Sim it belongs to one event loop.
type Writer struct {
	buf     []byte
	snapLen uint32
	packets int
}

// NewWriter returns a Writer with an Ethernet link type and the default
// snap length. All multi-byte fields are little-endian.
func NewWriter() *Writer { return NewWriterSnapLen(DefaultSnapLen) }

// NewWriterSnapLen returns a Writer that truncates captured packets to
// snapLen bytes (recording the original length, as the format requires).
func NewWriterSnapLen(snapLen uint32) *Writer {
	w := &Writer{snapLen: snapLen, buf: make([]byte, 0, 4096)}
	var hdr [fileHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], MagicNanos)
	binary.LittleEndian.PutUint16(hdr[4:], 2) // version major
	binary.LittleEndian.PutUint16(hdr[6:], 4) // version minor
	// thiszone and sigfigs stay zero.
	binary.LittleEndian.PutUint32(hdr[16:], snapLen)
	binary.LittleEndian.PutUint32(hdr[20:], LinkTypeEthernet)
	w.buf = append(w.buf, hdr[:]...)
	return w
}

// WritePacket appends one packet whose on-wire bytes are the
// concatenation of the given layers (Attach passes the synthesized
// Ethernet header and the pooled IP payload separately to avoid an
// intermediate copy). tsNanos is the capture timestamp in nanoseconds;
// the layers are copied before return, so callers may pass pooled
// storage they immediately recycle.
func (w *Writer) WritePacket(tsNanos int64, layers ...[]byte) {
	orig := 0
	for _, l := range layers {
		orig += len(l)
	}
	incl := orig
	if incl > int(w.snapLen) {
		incl = int(w.snapLen)
	}
	var hdr [packetHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(tsNanos/1e9))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(tsNanos%1e9))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(incl))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(orig))
	w.buf = append(w.buf, hdr[:]...)
	remain := incl
	for _, l := range layers {
		if remain <= 0 {
			break
		}
		if len(l) > remain {
			l = l[:remain]
		}
		w.buf = append(w.buf, l...)
		remain -= len(l)
	}
	w.packets++
}

// Bytes returns the capture file contents accumulated so far. The slice
// aliases the writer's buffer; callers must not mutate it.
func (w *Writer) Bytes() []byte { return w.buf }

// Packets returns the number of packets written.
func (w *Writer) Packets() int { return w.packets }

// SnapLen returns the writer's snap length.
func (w *Writer) SnapLen() uint32 { return w.snapLen }

// SHA256 returns the hex SHA-256 of the capture bytes — the digest the
// determinism gate compares across runs, worker counts and shard counts.
func (w *Writer) SHA256() string {
	sum := sha256.Sum256(w.buf)
	return hex.EncodeToString(sum[:])
}

// Packet is one record decoded by Parse.
type Packet struct {
	// TSNanos is the timestamp normalized to nanoseconds regardless of
	// the file's native resolution.
	TSNanos int64
	// Data is the captured bytes (len(Data) == incl_len).
	Data []byte
	// OrigLen is the packet's original wire length (>= len(Data)).
	OrigLen int
}

// Capture is a parsed classic-pcap file.
type Capture struct {
	// Nanosecond reports nanosecond (vs microsecond) timestamp
	// resolution.
	Nanosecond bool
	// BigEndian reports the file's byte order.
	BigEndian bool
	SnapLen   uint32
	LinkType  uint32
	Packets   []Packet
}

// Parse decodes a classic-pcap byte stream, accepting both byte orders
// and both timestamp resolutions, and validating that every record's
// lengths are internally consistent (incl_len <= orig_len, incl_len <=
// snaplen, record fits the file).
func Parse(b []byte) (*Capture, error) {
	if len(b) < fileHeaderLen {
		return nil, fmt.Errorf("pcap: truncated file header (%d bytes)", len(b))
	}
	var bo binary.ByteOrder = binary.LittleEndian
	c := &Capture{}
	switch binary.LittleEndian.Uint32(b) {
	case MagicNanos:
		c.Nanosecond = true
	case MagicMicros:
	default:
		switch binary.BigEndian.Uint32(b) {
		case MagicNanos:
			c.Nanosecond, c.BigEndian = true, true
			bo = binary.BigEndian
		case MagicMicros:
			c.BigEndian = true
			bo = binary.BigEndian
		default:
			return nil, fmt.Errorf("pcap: bad magic %#08x", binary.LittleEndian.Uint32(b))
		}
	}
	if major := bo.Uint16(b[4:]); major != 2 {
		return nil, fmt.Errorf("pcap: unsupported version %d.%d", major, bo.Uint16(b[6:]))
	}
	c.SnapLen = bo.Uint32(b[16:])
	c.LinkType = bo.Uint32(b[20:])
	rest := b[fileHeaderLen:]
	for len(rest) > 0 {
		if len(rest) < packetHeaderLen {
			return nil, fmt.Errorf("pcap: truncated packet header at record %d", len(c.Packets))
		}
		sec := int64(bo.Uint32(rest[0:]))
		frac := int64(bo.Uint32(rest[4:]))
		incl := int(bo.Uint32(rest[8:]))
		orig := int(bo.Uint32(rest[12:]))
		if incl > orig {
			return nil, fmt.Errorf("pcap: record %d incl_len %d > orig_len %d", len(c.Packets), incl, orig)
		}
		if uint32(incl) > c.SnapLen {
			return nil, fmt.Errorf("pcap: record %d incl_len %d > snaplen %d", len(c.Packets), incl, c.SnapLen)
		}
		if len(rest) < packetHeaderLen+incl {
			return nil, fmt.Errorf("pcap: record %d truncated (%d of %d data bytes)",
				len(c.Packets), len(rest)-packetHeaderLen, incl)
		}
		ts := sec * 1e9
		if c.Nanosecond {
			if frac >= 1e9 {
				return nil, fmt.Errorf("pcap: record %d nanosecond field %d out of range", len(c.Packets), frac)
			}
			ts += frac
		} else {
			if frac >= 1e6 {
				return nil, fmt.Errorf("pcap: record %d microsecond field %d out of range", len(c.Packets), frac)
			}
			ts += frac * 1e3
		}
		c.Packets = append(c.Packets, Packet{
			TSNanos: ts,
			Data:    rest[packetHeaderLen : packetHeaderLen+incl],
			OrigLen: orig,
		})
		rest = rest[packetHeaderLen+incl:]
	}
	return c, nil
}
