// Package icmp implements the ICMP messages the reproduction needs: echo
// request/reply (the experiments' ping workload), destination unreachable
// (including "fragmentation needed"), time exceeded, and the paper's
// care-of-address notification — the message a home agent "may also send
// ... back to the packet's source, informing it of the mobile host's
// current temporary care-of address" (Section 3.2), which is how a smart
// correspondent host learns it can switch from In-IE to In-DE.
package icmp

import (
	"encoding/binary"
	"fmt"

	"mob4x4/internal/ipv4"
)

// Type is the ICMP message type.
type Type uint8

// ICMP types used in the simulation. TypeMobilityBinding is taken from the
// experimental range; the 1996 proposals predate a fixed assignment.
const (
	TypeEchoReply       Type = 0
	TypeDestUnreachable Type = 3
	TypeEchoRequest     Type = 8
	TypeTimeExceeded    Type = 11
	TypeMobilityBinding Type = 37 // experimental: care-of address notification
)

// Destination-unreachable codes.
const (
	CodeNetUnreachable  uint8 = 0
	CodeHostUnreachable uint8 = 1
	CodeFragNeeded      uint8 = 4
)

func (t Type) String() string {
	switch t {
	case TypeEchoReply:
		return "echo-reply"
	case TypeDestUnreachable:
		return "dest-unreachable"
	case TypeEchoRequest:
		return "echo-request"
	case TypeTimeExceeded:
		return "time-exceeded"
	case TypeMobilityBinding:
		return "mobility-binding"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Message is a parsed ICMP message. The meaning of the fields depends on
// the type:
//
//   - Echo: ID/Seq used, Body is echo payload.
//   - DestUnreachable/TimeExceeded: Body is the offending IP header + 8
//     bytes; for CodeFragNeeded, MTU carries the next-hop MTU.
//   - MobilityBinding: Home and CareOf carry the binding; Lifetime is in
//     seconds.
type Message struct {
	Type Type
	Code uint8
	ID   uint16
	Seq  uint16
	MTU  uint16 // CodeFragNeeded only
	Body []byte

	// Mobility binding fields (TypeMobilityBinding only).
	Home     ipv4.Addr
	CareOf   ipv4.Addr
	Lifetime uint16 // seconds
}

// Marshal serializes the message with its checksum into a fresh slice.
// Hot paths should use AppendMarshal with a pooled buffer instead.
func (m *Message) Marshal() []byte {
	return m.AppendMarshal(nil)
}

// AppendMarshal appends the serialized message, checksum included, to dst
// and returns the extended slice. Every wire byte is written explicitly,
// so dst may come from a pool with dirty spare capacity.
func (m *Message) AppendMarshal(dst []byte) []byte {
	n := 8 + len(m.Body)
	if m.Type == TypeMobilityBinding {
		n = 8 + 10
	}
	start := len(dst)
	if cap(dst)-start < n {
		grown := make([]byte, start, start+n)
		copy(grown, dst)
		dst = grown
	}
	b := dst[start : start+n]
	clear(b[2:8]) // checksum and the rest-of-header word
	switch m.Type {
	case TypeMobilityBinding:
		copy(b[8:12], m.Home[:])
		copy(b[12:16], m.CareOf[:])
		binary.BigEndian.PutUint16(b[16:], m.Lifetime)
	case TypeDestUnreachable, TypeTimeExceeded:
		if m.Code == CodeFragNeeded {
			binary.BigEndian.PutUint16(b[6:], m.MTU)
		}
		copy(b[8:], m.Body)
	default: // echo & friends
		binary.BigEndian.PutUint16(b[4:], m.ID)
		binary.BigEndian.PutUint16(b[6:], m.Seq)
		copy(b[8:], m.Body)
	}
	b[0] = uint8(m.Type)
	b[1] = m.Code
	binary.BigEndian.PutUint16(b[2:], ipv4.Checksum(b))
	return dst[:start+n]
}

// Unmarshal parses and checksums an ICMP message.
func Unmarshal(b []byte) (Message, error) {
	var m Message
	if len(b) < 8 {
		return m, fmt.Errorf("icmp: truncated message (%d bytes)", len(b))
	}
	if ipv4.Checksum(b) != 0 {
		return m, fmt.Errorf("icmp: checksum mismatch")
	}
	m.Type = Type(b[0])
	m.Code = b[1]
	switch m.Type {
	case TypeMobilityBinding:
		if len(b) < 18 {
			return m, fmt.Errorf("icmp: truncated mobility binding (%d bytes)", len(b))
		}
		copy(m.Home[:], b[8:12])
		copy(m.CareOf[:], b[12:16])
		m.Lifetime = binary.BigEndian.Uint16(b[16:])
	case TypeDestUnreachable, TypeTimeExceeded:
		if m.Code == CodeFragNeeded {
			m.MTU = binary.BigEndian.Uint16(b[6:])
		}
		m.Body = b[8:]
	default:
		m.ID = binary.BigEndian.Uint16(b[4:])
		m.Seq = binary.BigEndian.Uint16(b[6:])
		m.Body = b[8:]
	}
	return m, nil
}

// EchoRequest builds an echo request message.
func EchoRequest(id, seq uint16, body []byte) Message {
	return Message{Type: TypeEchoRequest, ID: id, Seq: seq, Body: body}
}

// EchoReplyTo builds the reply matching a request.
func EchoReplyTo(req Message) Message {
	return Message{Type: TypeEchoReply, ID: req.ID, Seq: req.Seq, Body: req.Body}
}

// BindingNotice builds the home agent's care-of notification for a smart
// correspondent host.
func BindingNotice(home, careOf ipv4.Addr, lifetimeSec uint16) Message {
	return Message{Type: TypeMobilityBinding, Home: home, CareOf: careOf, Lifetime: lifetimeSec}
}

// FragNeeded builds the "fragmentation needed and DF set" error for the
// offending packet, quoting its header and first 8 payload bytes. The
// quote is appended to dst, whose storage the message's Body then
// aliases.
func FragNeeded(dst []byte, orig ipv4.Packet, mtu int) (Message, error) {
	quoted, err := quote(dst, orig)
	if err != nil {
		return Message{}, err
	}
	return Message{
		Type: TypeDestUnreachable,
		Code: CodeFragNeeded,
		MTU:  uint16(mtu),
		Body: quoted,
	}, nil
}

// TimeExceeded builds the TTL-expired error quoting the offending packet,
// appending the quote to dst as FragNeeded does.
func TimeExceeded(dst []byte, orig ipv4.Packet) (Message, error) {
	quoted, err := quote(dst, orig)
	if err != nil {
		return Message{}, err
	}
	return Message{Type: TypeTimeExceeded, Body: quoted}, nil
}

// quote appends orig's header and first 8 payload bytes to dst and
// returns the appended bytes.
func quote(dst []byte, orig ipv4.Packet) ([]byte, error) {
	start := len(dst)
	b, err := orig.AppendMarshal(dst)
	if err != nil {
		return nil, err
	}
	return b[start:min(len(b), start+orig.Header.Len()+8)], nil
}
