// Package dnssim implements the name service of the simulation, including
// the paper's proposed mobility extension (Section 3.2): alongside normal
// A records, a name may carry a "CA" (care-of address) record, "similar to
// the current MX records", registered dynamically by a mobile host that
// is away from home but not moving frequently. A smart correspondent that
// sees both records "knows that it has the option to send packets
// directly to that temporary address".
//
// The wire format is a simplified binary encoding, not RFC 1035 — the
// reproduction needs the record semantics and the lookup round-trip, not
// DNS name compression.
package dnssim

import (
	"encoding/binary"
	"fmt"

	"mob4x4/internal/assert"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/stack"
	"mob4x4/internal/udp"
	"mob4x4/internal/vtime"
)

// RType is a record type.
type RType uint8

// Record types.
const (
	TypeA RType = 1
	// TypeCA is the paper's extension: the temporary care-of address of
	// a mobile host, with a lifetime.
	TypeCA RType = 2
)

func (t RType) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeCA:
		return "CA"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Record is one resource record.
type Record struct {
	Type RType
	Addr ipv4.Addr
	TTL  uint32 // seconds
}

// Message opcodes.
const (
	opQuery  uint8 = 0
	opUpdate uint8 = 1
)

// message is the wire unit (query, response, or dynamic update).
type message struct {
	id       uint16
	op       uint8
	response bool
	name     string
	records  []Record
}

// maxNameLen is the longest name the one-byte wire length field can
// carry. Resolver.send rejects longer names before a message is built, so
// by the time marshal runs the bound is an invariant.
const maxNameLen = 255

func (m *message) marshal() []byte {
	if len(m.name) > maxNameLen || len(m.records) > 255 {
		assert.Unreachable("dnssim: message exceeds wire limits (name %d bytes, %d records)",
			len(m.name), len(m.records))
	}
	b := make([]byte, 0, 8+len(m.name)+len(m.records)*9)
	var hdr [4]byte
	binary.BigEndian.PutUint16(hdr[0:], m.id)
	hdr[2] = m.op
	if m.response {
		hdr[3] = 1
	}
	b = append(b, hdr[:]...)
	b = append(b, byte(len(m.name)))
	b = append(b, m.name...)
	b = append(b, byte(len(m.records)))
	for _, r := range m.records {
		var rb [9]byte
		rb[0] = byte(r.Type)
		copy(rb[1:5], r.Addr[:])
		binary.BigEndian.PutUint32(rb[5:], r.TTL)
		b = append(b, rb[:]...)
	}
	return b
}

func parseMessage(b []byte) (message, error) {
	var m message
	if len(b) < 6 {
		return m, fmt.Errorf("dnssim: truncated message")
	}
	m.id = binary.BigEndian.Uint16(b[0:])
	m.op = b[2]
	m.response = b[3] == 1
	nameLen := int(b[4])
	if len(b) < 5+nameLen+1 {
		return m, fmt.Errorf("dnssim: truncated name")
	}
	m.name = string(b[5 : 5+nameLen])
	rest := b[5+nameLen:]
	count := int(rest[0])
	rest = rest[1:]
	if len(rest) < count*9 {
		return m, fmt.Errorf("dnssim: truncated records")
	}
	for i := 0; i < count; i++ {
		r := Record{Type: RType(rest[0]), TTL: binary.BigEndian.Uint32(rest[5:])}
		copy(r.Addr[:], rest[1:5])
		m.records = append(m.records, r)
		rest = rest[9:]
	}
	return m, nil
}

// ServerStats counts server activity.
type ServerStats struct {
	Queries  uint64
	Updates  uint64
	NotFound uint64
}

// Server is an authoritative name server with dynamic updates.
type Server struct {
	host *stack.Host
	sock *stack.UDPSocket
	zone map[string][]Record
	// caExpiry tracks CA record lifetimes.
	caExpiry map[string]*vtime.Timer

	Stats ServerStats
}

// NewServer starts a name server on host.
func NewServer(host *stack.Host) (*Server, error) {
	s := &Server{
		host:     host,
		zone:     make(map[string][]Record),
		caExpiry: make(map[string]*vtime.Timer),
	}
	sock, err := host.OpenUDP(ipv4.Zero, udp.PortDNS, s.serve)
	if err != nil {
		return nil, fmt.Errorf("dnssim: %w", err)
	}
	s.sock = sock
	return s, nil
}

// AddA installs a permanent A record.
func (s *Server) AddA(name string, addr ipv4.Addr) {
	s.zone[name] = append(s.zone[name], Record{Type: TypeA, Addr: addr, TTL: 86400})
}

// SetCA installs (or replaces) the care-of record for name with the given
// lifetime; a zero lifetime removes it. This is what a mobile host's
// dynamic update performs.
func (s *Server) SetCA(name string, addr ipv4.Addr, ttlSec uint32) {
	t := s.caExpiry[name]
	t.Stop()
	recs := s.zone[name][:0]
	for _, r := range s.zone[name] {
		if r.Type != TypeCA {
			recs = append(recs, r)
		}
	}
	s.zone[name] = recs
	if ttlSec == 0 {
		return
	}
	s.zone[name] = append(s.zone[name], Record{Type: TypeCA, Addr: addr, TTL: ttlSec})
	if t == nil {
		t = vtime.NewTimer(func() { s.SetCA(name, ipv4.Zero, 0) })
		s.caExpiry[name] = t
	}
	t.Reset(s.host.Sched(), vtime.Duration(ttlSec)*1e9)
}

// Lookup returns the records for a name (server-side view, for tests).
func (s *Server) Lookup(name string) []Record { return s.zone[name] }

func (s *Server) serve(src ipv4.Addr, srcPort uint16, dst ipv4.Addr, payload []byte) {
	m, err := parseMessage(payload)
	if err != nil || m.response {
		return
	}
	switch m.op {
	case opQuery:
		s.Stats.Queries++
		recs := s.zone[m.name]
		if len(recs) == 0 {
			s.Stats.NotFound++
		}
		resp := message{id: m.id, op: opQuery, response: true, name: m.name, records: recs}
		_ = s.sock.SendToFrom(dst, src, srcPort, resp.marshal())
	case opUpdate:
		s.Stats.Updates++
		for _, r := range m.records {
			if r.Type == TypeCA {
				s.SetCA(m.name, r.Addr, r.TTL)
			}
		}
		resp := message{id: m.id, op: opUpdate, response: true, name: m.name}
		_ = s.sock.SendToFrom(dst, src, srcPort, resp.marshal())
	}
}

// Resolver is a stub resolver with retry.
type Resolver struct {
	host    *stack.Host
	server  ipv4.Addr
	sock    *stack.UDPSocket
	nextID  uint16
	pending map[uint16]*query

	// Timeout and Retries configure patience (defaults 1s, 3).
	Timeout vtime.Duration
	Retries int
}

type query struct {
	msg   message
	tries int
	timer *vtime.Timer
	done  func([]Record, error)
}

// NewResolver creates a resolver on host pointed at server.
func NewResolver(host *stack.Host, server ipv4.Addr) (*Resolver, error) {
	r := &Resolver{
		host:    host,
		server:  server,
		pending: make(map[uint16]*query),
		Timeout: vtime.Duration(1e9),
		Retries: 3,
	}
	sock, err := host.OpenUDP(ipv4.Zero, 0, r.receive)
	if err != nil {
		return nil, fmt.Errorf("dnssim: resolver: %w", err)
	}
	r.sock = sock
	return r, nil
}

// Query looks up name; done receives the records (possibly empty) or an
// error after retries are exhausted.
func (r *Resolver) Query(name string, done func([]Record, error)) {
	r.send(message{op: opQuery, name: name}, done)
}

// UpdateCA sends a dynamic update registering (or with ttl 0, clearing)
// the care-of record for name.
func (r *Resolver) UpdateCA(name string, careOf ipv4.Addr, ttlSec uint32, done func(error)) {
	r.send(message{op: opUpdate, name: name, records: []Record{{Type: TypeCA, Addr: careOf, TTL: ttlSec}}},
		func(_ []Record, err error) {
			if done != nil {
				done(err)
			}
		})
}

func (r *Resolver) send(m message, done func([]Record, error)) {
	if len(m.name) > maxNameLen {
		// A caller-supplied name is input, not an invariant: fail the
		// query instead of crashing the simulation.
		if done != nil {
			done(nil, fmt.Errorf("dnssim: name too long (%d bytes, max %d)", len(m.name), maxNameLen))
		}
		return
	}
	r.nextID++
	m.id = r.nextID
	q := &query{msg: m, done: done}
	q.timer = vtime.NewTimer(func() { r.onTimeout(q) })
	r.pending[m.id] = q
	r.transmit(q)
}

func (r *Resolver) transmit(q *query) {
	_ = r.sock.SendTo(r.server, udp.PortDNS, q.msg.marshal())
	q.timer.Reset(r.host.Sched(), r.Timeout)
}

// onTimeout retransmits q, or fails it after Retries tries.
func (r *Resolver) onTimeout(q *query) {
	q.tries++
	if q.tries >= r.Retries {
		delete(r.pending, q.msg.id)
		if q.done != nil {
			q.done(nil, fmt.Errorf("dnssim: query %q timed out", q.msg.name))
		}
		return
	}
	r.transmit(q)
}

func (r *Resolver) receive(src ipv4.Addr, srcPort uint16, dst ipv4.Addr, payload []byte) {
	m, err := parseMessage(payload)
	if err != nil || !m.response {
		return
	}
	q, ok := r.pending[m.id]
	if !ok {
		return
	}
	delete(r.pending, m.id)
	q.timer.Stop()
	if q.done != nil {
		q.done(m.records, nil)
	}
}

// BestAddr applies the smart-correspondent preference to a record set:
// the CA record if present (direct delivery available), else the A
// record. ok is false if neither exists.
func BestAddr(recs []Record) (addr ipv4.Addr, isCareOf, ok bool) {
	var a, ca ipv4.Addr
	var hasA, hasCA bool
	for _, r := range recs {
		switch r.Type {
		case TypeA:
			a, hasA = r.Addr, true
		case TypeCA:
			ca, hasCA = r.Addr, true
		}
	}
	switch {
	case hasCA:
		return ca, true, true
	case hasA:
		return a, false, true
	default:
		return ipv4.Zero, false, false
	}
}
