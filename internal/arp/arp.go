// Package arp implements the Address Resolution Protocol over simulated
// segments, including the gratuitous / proxy ARP behavior ([RFC1027],
// [RFC826]) that a Mobile IP home agent uses to capture packets addressed
// to an absent mobile host.
//
// The package provides the wire codec, the per-segment learning table and
// the per-interface cache that views it; package stack wires them to
// NICs and drives timers.
package arp

import (
	"encoding/binary"
	"fmt"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
)

// Op is the ARP operation code.
type Op uint16

// ARP operations.
const (
	OpRequest Op = 1
	OpReply   Op = 2
)

func (o Op) String() string {
	switch o {
	case OpRequest:
		return "request"
	case OpReply:
		return "reply"
	default:
		return fmt.Sprintf("op(%d)", uint16(o))
	}
}

// Message is an ARP packet for IPv4-over-simulated-Ethernet.
type Message struct {
	Op        Op
	SenderMAC netsim.MAC
	SenderIP  ipv4.Addr
	TargetMAC netsim.MAC
	TargetIP  ipv4.Addr
}

// wireLen is the serialized size: fixed ARP header (8) + 2*(6+4).
const wireLen = 28

// Marshal serializes the message into a fresh slice. Hot paths should use
// AppendMarshal with a pooled buffer instead.
func (m *Message) Marshal() []byte {
	return m.AppendMarshal(nil)
}

// AppendMarshal appends the serialized message to dst and returns the
// extended slice. Every wire byte is written explicitly, so dst may come
// from a pool with dirty spare capacity.
func (m *Message) AppendMarshal(dst []byte) []byte {
	start := len(dst)
	if cap(dst)-start < wireLen {
		grown := make([]byte, start, start+wireLen)
		copy(grown, dst)
		dst = grown
	}
	b := dst[start : start+wireLen]
	binary.BigEndian.PutUint16(b[0:], 1)      // htype: Ethernet
	binary.BigEndian.PutUint16(b[2:], 0x0800) // ptype: IPv4
	b[4] = 6                                  // hlen
	b[5] = 4                                  // plen
	binary.BigEndian.PutUint16(b[6:], uint16(m.Op))
	putMAC(b[8:14], m.SenderMAC)
	copy(b[14:18], m.SenderIP[:])
	putMAC(b[18:24], m.TargetMAC)
	copy(b[24:28], m.TargetIP[:])
	return dst[:start+wireLen]
}

// Unmarshal parses an ARP packet.
func Unmarshal(b []byte) (Message, error) {
	var m Message
	if len(b) < wireLen {
		return m, fmt.Errorf("arp: truncated message (%d bytes)", len(b))
	}
	if binary.BigEndian.Uint16(b[0:]) != 1 || binary.BigEndian.Uint16(b[2:]) != 0x0800 ||
		b[4] != 6 || b[5] != 4 {
		return m, fmt.Errorf("arp: unsupported hardware/protocol types")
	}
	m.Op = Op(binary.BigEndian.Uint16(b[6:]))
	if m.Op != OpRequest && m.Op != OpReply {
		return m, fmt.Errorf("arp: bad op %d", m.Op)
	}
	m.SenderMAC = getMAC(b[8:14])
	copy(m.SenderIP[:], b[14:18])
	m.TargetMAC = getMAC(b[18:24])
	copy(m.TargetIP[:], b[24:28])
	return m, nil
}

func putMAC(b []byte, m netsim.MAC) {
	b[0] = byte(m >> 40)
	b[1] = byte(m >> 32)
	b[2] = byte(m >> 24)
	b[3] = byte(m >> 16)
	b[4] = byte(m >> 8)
	b[5] = byte(m)
}

func getMAC(b []byte) netsim.MAC {
	return netsim.MAC(b[0])<<40 | netsim.MAC(b[1])<<32 | netsim.MAC(b[2])<<24 |
		netsim.MAC(b[3])<<16 | netsim.MAC(b[4])<<8 | netsim.MAC(b[5])
}

// Table is one segment's shared ARP learning table. Every NIC attached
// to a segment hears each broadcast ARP frame that lands on it, and each
// would learn the sender's mapping from it; the table records that learn
// once, and the Cache of every interface on the segment reads it as part
// of its own view. Learns are numbered in arrival order.
type Table struct {
	seq uint64
	// The learns by address: in few while the table holds no more
	// addresses than few has room for — most segments carry a handful,
	// and then the table allocates nothing — in many beyond that.
	few  [4]addrEntry
	nfew int
	many map[ipv4.Addr]tableEntry
}

type addrEntry struct {
	ip ipv4.Addr
	e  tableEntry
}

// learn is one sender mapping learned from a broadcast frame.
type learn struct {
	mac netsim.MAC
	src netsim.MAC // the frame's Src: its sender did not hear it
	at  int64
	seq uint64 // 0: none
}

// tableEntry keeps, for one address, the newest learn and the newest
// learn from a frame sent by another NIC than the newest's sender. The
// newest learn that a given NIC heard is one of the two: the newest,
// unless that NIC sent it itself.
type tableEntry struct {
	newest, other learn
}

// Learn records that every NIC on the segment but the frame's sender src
// learned ip → mac at time now.
func (t *Table) Learn(ip ipv4.Addr, mac, src netsim.MAC, now int64) {
	t.seq++
	e := t.get(ip)
	if e.newest.src != src {
		e.other = e.newest
	}
	e.newest = learn{mac: mac, src: src, at: now, seq: t.seq}
	t.put(ip, e)
}

// heard returns the newest learn of ip from a frame that self did not
// send.
func (t *Table) heard(ip ipv4.Addr, self netsim.MAC) learn {
	e := t.get(ip)
	if e.newest.src != self {
		return e.newest
	}
	return e.other
}

func (t *Table) get(ip ipv4.Addr) tableEntry {
	if t.many != nil {
		return t.many[ip]
	}
	for k := range t.nfew {
		if t.few[k].ip == ip {
			return t.few[k].e
		}
	}
	return tableEntry{}
}

func (t *Table) put(ip ipv4.Addr, e tableEntry) {
	if t.many != nil {
		t.many[ip] = e
		return
	}
	for k := range t.nfew {
		if t.few[k].ip == ip {
			t.few[k].e = e
			return
		}
	}
	if t.nfew < len(t.few) {
		t.few[t.nfew] = addrEntry{ip: ip, e: e}
		t.nfew++
		return
	}
	t.many = make(map[ipv4.Addr]tableEntry, 2*len(t.few))
	for _, f := range t.few {
		t.many[f.ip] = f.e
	}
	t.many[ip] = e
}

// Cache is one interface's ARP table. While the interface sits on a
// segment that has a Table, the cache is a view: its entry for an
// address is the newer of what the interface learned itself (from
// unicast ARP) and the newest learn in the segment table that it heard
// — one that landed after the cache's last flush, in a frame it did not
// send, for an address other than its own. The view is exact because
// the owner flushes whenever the interface changes segment or address,
// so between two flushes it hears exactly the broadcasts that land on
// the one segment. Entries older than the TTL are evicted lazily on
// lookup; an evicted or invalidated entry leaves a marker behind so that
// an older table learn cannot resurface in its place.
type Cache struct {
	entries map[ipv4.Addr]entry
	// table is the owner's segment table (nil: detached, or no broadcast
	// ARP has landed there yet); since is table.seq at the last flush.
	table *Table
	since uint64
	// self and addr identify the owner: it hears no frame it sent, and
	// never learns its own address.
	self netsim.MAC
	addr ipv4.Addr
	// Hits/Misses count Lookup outcomes.
	Hits, Misses uint64
}

type entry struct {
	mac   netsim.MAC // goneMAC: removed (see Invalidate)
	added int64      // opaque timestamp from the owner (virtual nanoseconds)
	// seen is the table sequence number the entry is reconciled up to:
	// every table learn numbered above it is newer than the entry.
	seen uint64
}

// goneMAC marks an entry removed while the table may still hold an older
// learn for its address. It is wider than 48 bits, so no frame carries it.
const goneMAC netsim.MAC = 1 << 63

// NewCache returns an empty cache. The entry map is allocated lazily on
// the first Learn: most interfaces in a large simulation never resolve
// anything (reads and deletes on a nil map are safe in Go).
func NewCache() *Cache {
	return &Cache{}
}

// Join flushes the cache and makes it the view of the interface self,
// addressed addr, on the segment whose table is t (nil when detached, or
// when no broadcast ARP has landed on the segment yet).
func (c *Cache) Join(t *Table, self netsim.MAC, addr ipv4.Addr) {
	c.table, c.self, c.addr = t, self, addr
	c.Flush()
}

// Bind makes t part of the view without flushing. t must be the table of
// the segment the owner joined, created since: every learn in it is
// newer than anything the cache holds.
func (c *Cache) Bind(t *Table) { c.table = t }

// Learn records (or refreshes) a mapping at time now.
func (c *Cache) Learn(ip ipv4.Addr, mac netsim.MAC, now int64) {
	if c.entries == nil {
		c.entries = make(map[ipv4.Addr]entry)
	}
	c.entries[ip] = entry{mac: mac, added: now, seen: c.seq()}
}

// seq is the current table sequence number (0 without a table).
func (c *Cache) seq() uint64 {
	if c.table == nil {
		return 0
	}
	return c.table.seq
}

// Lookup returns the MAC for ip if present and not older than ttl.
func (c *Cache) Lookup(ip ipv4.Addr, now, ttl int64) (netsim.MAC, bool) {
	e, ok := c.entries[ip]
	if t := c.table; t != nil && (!ok || e.seen != t.seq) && ip != c.addr {
		// Broadcasts landed since the entry was reconciled: take the
		// newest one heard if it is newer than the entry.
		floor := c.since
		if ok {
			floor = e.seen
		}
		if l := t.heard(ip, c.self); l.seq > floor {
			e, ok = entry{mac: l.mac, added: l.at}, true
		}
		if ok && c.entries != nil {
			// Reconciled: the next lookup is one probe until the next
			// broadcast lands. A cache with no entries of its own does
			// not allocate for this; its lookups probe only the table.
			e.seen = t.seq
			c.entries[ip] = e
		}
	}
	if !ok || e.mac == goneMAC || (ttl > 0 && now-e.added > ttl) {
		if ok && e.mac != goneMAC {
			c.Invalidate(ip)
		}
		c.Misses++
		return 0, false
	}
	c.Hits++
	return e.mac, true
}

// Flush removes every entry (used when a mobile host moves to a new
// segment: cached neighbours are meaningless there). The map's capacity is
// reused — mobility events flush constantly and the next cell refills with
// a similar neighbour count.
func (c *Cache) Flush() {
	clear(c.entries)
	c.since = c.seq()
}

// Invalidate removes one entry.
func (c *Cache) Invalidate(ip ipv4.Addr) {
	if c.table == nil {
		delete(c.entries, ip)
		return
	}
	if c.entries == nil {
		c.entries = make(map[ipv4.Addr]entry)
	}
	c.entries[ip] = entry{mac: goneMAC, seen: c.table.seq}
}

// Len reports the number of live entries the cache holds (including
// possibly stale ones not yet evicted). Table learns enter the count
// once a Lookup has reconciled them.
func (c *Cache) Len() int {
	n := 0
	for _, e := range c.entries {
		if e.mac != goneMAC {
			n++
		}
	}
	return n
}

// Proxy is the set of addresses an interface answers ARP for on behalf of
// other hosts. A Mobile IP home agent inserts the mobile host's home
// address here while the mobile host is away, so that packets for the MH
// are link-delivered to the agent ([RFC1027] gratuitous proxy ARP).
type Proxy struct {
	addrs map[ipv4.Addr]bool
}

// NewProxy returns an empty proxy set. The map is allocated lazily on the
// first Add: only home agents ever proxy.
func NewProxy() *Proxy { return &Proxy{} }

// Add starts proxying for ip.
func (p *Proxy) Add(ip ipv4.Addr) {
	if p.addrs == nil {
		p.addrs = make(map[ipv4.Addr]bool)
	}
	p.addrs[ip] = true
}

// Remove stops proxying for ip.
func (p *Proxy) Remove(ip ipv4.Addr) { delete(p.addrs, ip) }

// Contains reports whether ip is proxied.
func (p *Proxy) Contains(ip ipv4.Addr) bool { return p.addrs[ip] }

// Len reports the number of proxied addresses.
func (p *Proxy) Len() int { return len(p.addrs) }

// GratuitousRequest builds the gratuitous ARP a host (or proxy) broadcasts
// to update neighbours' caches: sender==target IP, broadcast target.
func GratuitousRequest(mac netsim.MAC, ip ipv4.Addr) Message {
	return Message{
		Op:        OpRequest,
		SenderMAC: mac,
		SenderIP:  ip,
		TargetMAC: 0,
		TargetIP:  ip,
	}
}
