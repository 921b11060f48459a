package stack

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/netsim"
	"mob4x4/internal/udp"
)

// demuxShadow is the reference model for a host's demux tables, one Go
// map per table. Handler and override values are ids; handler id -1 marks
// UDP going to the sockets, as it does from the first OpenUDP until a UDP
// handler is registered.
type demuxShadow struct {
	handlers  map[uint8]int
	claims    map[ipv4.Addr]int // 0 = nil override (deliver normally)
	socks     map[uint16]*shadowSock
	ephemeral uint16
}

type shadowSock struct {
	id   int
	bind ipv4.Addr
	sock *UDPSocket
	open bool
}

// demuxWorld drives one host through a seeded sequence of table writes and
// deliveries, checking every outcome against the shadow.
type demuxWorld struct {
	t      *testing.T
	name   string
	r      *rand.Rand
	sim    *netsim.Sim
	h      *Host
	ifc    *Iface
	shadow demuxShadow
	opened []*shadowSock // every socket opened, closed ones included
	pool   []ipv4.Addr   // claim and destination candidates
	ports  []uint16      // fixed-port candidates
	nextID int
	got    string // what the last delivery reached
}

var demuxProtos = []uint8{ipv4.ProtoICMP, ipv4.ProtoIPIP, ipv4.ProtoTCP, ipv4.ProtoUDP, ipv4.ProtoMinEnc, 99}

func newDemuxWorld(t *testing.T, name string, seed uint64, poolSize int) *demuxWorld {
	sim := netsim.NewSim(1)
	seg := sim.NewSegment("lan", netsim.SegmentOpts{})
	prefix := ipv4.MustParsePrefix("10.0.0.0/24")
	h := NewHost(sim, "h")
	w := &demuxWorld{
		t: t, name: name, r: rand.New(rand.NewPCG(seed, 0xde3)),
		sim: sim, h: h, ifc: h.AddIface("eth0", seg, prefix.Host(2), prefix),
		shadow: demuxShadow{
			handlers: map[uint8]int{}, claims: map[ipv4.Addr]int{},
			socks: map[uint16]*shadowSock{}, ephemeral: 49152,
		},
		ports: []uint16{434, 436, 53, 49153, 49154, 65535},
	}
	base := ipv4.MustParseAddr("36.1.0.0").Uint32()
	for i := 0; i < poolSize; i++ {
		w.pool = append(w.pool, ipv4.AddrFromUint32(base+1+uint32(i)))
	}
	return w
}

func (w *demuxWorld) fail(format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("%s: "+format, append([]any{w.name}, args...)...)
}

func (w *demuxWorld) id() int {
	w.nextID++
	return w.nextID
}

func (w *demuxWorld) handle(proto uint8) {
	id := w.id()
	w.h.Handle(proto, func(*Iface, ipv4.Packet) { w.got = fmt.Sprintf("handler %d", id) })
	w.shadow.handlers[proto] = id
}

func (w *demuxWorld) claim(addr ipv4.Addr) {
	if w.r.IntN(3) == 0 {
		w.h.Claim(addr, nil)
		w.shadow.claims[addr] = 0
		return
	}
	id := w.id()
	w.h.Claim(addr, func(*Iface, ipv4.Packet) { w.got = fmt.Sprintf("override %d", id) })
	w.shadow.claims[addr] = id
}

func (w *demuxWorld) unclaim(addr ipv4.Addr) {
	w.h.Unclaim(addr)
	delete(w.shadow.claims, addr)
}

func (w *demuxWorld) openUDP(port uint16) {
	var bind ipv4.Addr
	if w.r.IntN(4) == 0 {
		bind = w.ifc.Addr()
	}
	id := w.id()
	s, err := w.h.OpenUDP(bind, port, func(ipv4.Addr, uint16, ipv4.Addr, []byte) {
		w.got = fmt.Sprintf("socket %d", id)
	})
	want := port
	if port == 0 {
		sh := &w.shadow
		for {
			sh.ephemeral++
			if sh.ephemeral < 49152 {
				sh.ephemeral = 49152
			}
			if sh.socks[sh.ephemeral] == nil {
				want = sh.ephemeral
				break
			}
		}
	}
	if w.shadow.socks[want] != nil {
		if err == nil {
			w.fail("OpenUDP(%d) on a bound port succeeded", port)
		}
		return
	}
	if err != nil {
		w.fail("OpenUDP(%d): %v", port, err)
	}
	if s.Port() != want {
		w.fail("OpenUDP(%d) bound port %d, want %d", port, s.Port(), want)
	}
	ss := &shadowSock{id: id, bind: bind, sock: s, open: true}
	w.shadow.socks[want] = ss
	w.opened = append(w.opened, ss)
	if _, ok := w.shadow.handlers[ipv4.ProtoUDP]; !ok {
		w.shadow.handlers[ipv4.ProtoUDP] = -1
	}
}

func (w *demuxWorld) close(ss *shadowSock) {
	ss.sock.Close()
	if ss.open {
		ss.open = false
		delete(w.shadow.socks, ss.sock.Port())
	}
}

// want predicts what delivering a packet of proto to dst (dst port dport
// for UDP) reaches: "" when nothing runs.
func (w *demuxWorld) want(proto uint8, dst ipv4.Addr, dport uint16) string {
	sh := &w.shadow
	id, claimed := sh.claims[dst]
	if !dst.IsBroadcast() && !claimed && dst != w.ifc.Addr() {
		return "" // not local, not forwarding
	}
	if claimed && id != 0 {
		return fmt.Sprintf("override %d", id)
	}
	hid, ok := sh.handlers[proto]
	switch {
	case !ok:
		return "no proto"
	case hid != -1:
		return fmt.Sprintf("handler %d", hid)
	}
	ss := sh.socks[dport]
	if ss == nil || (!ss.bind.IsZero() && dst != ss.bind && !dst.IsBroadcast()) {
		return ""
	}
	return fmt.Sprintf("socket %d", ss.id)
}

func (w *demuxWorld) deliver(proto uint8, dst ipv4.Addr, dport uint16) {
	w.t.Helper()
	src := ipv4.MustParseAddr("17.5.1.9")
	var payload []byte
	if proto == ipv4.ProtoUDP {
		d := udp.Datagram{SrcPort: 7, DstPort: dport, Payload: []byte("x")}
		b, err := d.AppendMarshal(src, dst, nil)
		if err != nil {
			w.fail("marshal: %v", err)
		}
		payload = b
	}
	noProto := w.sim.Metrics.DropCount(metrics.DropNoProto)
	w.got = ""
	w.h.receiveIP(w.ifc, ipv4.Packet{
		Header:  ipv4.Header{Protocol: proto, TTL: 9, Src: src, Dst: dst},
		Payload: payload,
	})
	if w.sim.Metrics.DropCount(metrics.DropNoProto) != noProto {
		w.got = "no proto"
	}
	if want := w.want(proto, dst, dport); w.got != want {
		w.fail("deliver proto %d to %s:%d reached %q, want %q", proto, dst, dport, w.got, want)
	}
}

func (w *demuxWorld) checkClaimed(addr ipv4.Addr) {
	w.t.Helper()
	_, claimed := w.shadow.claims[addr]
	if got, want := w.h.Claimed(addr), claimed || addr == w.ifc.Addr(); got != want {
		w.fail("Claimed(%s) = %v, want %v", addr, got, want)
	}
}

func (w *demuxWorld) pick() ipv4.Addr { return w.pool[w.r.IntN(len(w.pool))] }

// dst draws a delivery destination: mostly the claim pool, sometimes the
// interface address or the limited broadcast.
func (w *demuxWorld) dst() ipv4.Addr {
	switch w.r.IntN(6) {
	case 0:
		return w.ifc.Addr()
	case 1:
		return ipv4.Broadcast
	}
	return w.pick()
}

func (w *demuxWorld) dport() uint16 {
	if len(w.opened) > 0 && w.r.IntN(3) > 0 {
		return w.opened[w.r.IntN(len(w.opened))].sock.Port()
	}
	return w.ports[w.r.IntN(len(w.ports))]
}

// step performs one random operation and checks it.
func (w *demuxWorld) step() {
	w.t.Helper()
	switch op := w.r.IntN(10); {
	case op == 0:
		w.handle(demuxProtos[w.r.IntN(len(demuxProtos))])
	case op <= 2:
		w.claim(w.pick())
	case op == 3:
		w.unclaim(w.pick())
	case op == 4:
		w.openUDP(w.ports[w.r.IntN(len(w.ports))]) // fixed: clashes happen
	case op == 5:
		w.openUDP(0)
	case op == 6 && len(w.opened) > 0:
		w.close(w.opened[w.r.IntN(len(w.opened))])
	case op == 7:
		w.checkClaimed(w.dst())
	default:
		proto := ipv4.ProtoUDP
		if w.r.IntN(3) == 0 {
			proto = demuxProtos[w.r.IntN(len(demuxProtos))]
		}
		w.deliver(proto, w.dst(), w.dport())
	}
}

// TestHostDemuxDifferential checks the host's demux tables against the
// map-based shadow on seeded sequences of Handle, Claim, Unclaim, OpenUDP
// (fixed and ephemeral ports, clashes included), Close and delivery.
// Claim pools of 4–24 addresses cross netsim.SegIndexMin, so both the
// scan and the map take claims. A final host grows to 2,000 claims, as a
// home agent with every fleet node bound does, and must have left the
// scan for the map at SegIndexMin+1. A failure names its seed.
func TestHostDemuxDifferential(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 30
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		pool := 4 + int(seed%21)
		w := newDemuxWorld(t, fmt.Sprintf("seed %d (pool %d)", seed, pool), seed, pool)
		for i := 0; i < 400; i++ {
			w.step()
		}
	}

	w := newDemuxWorld(t, "home agent", 1, 2000)
	w.handle(ipv4.ProtoIPIP)
	w.openUDP(434)
	for i, addr := range w.pool {
		w.claim(addr)
		if got, want := w.h.claims.big != nil, i+1 > netsim.SegIndexMin; got != want {
			w.fail("%d claims: map index built = %v, want %v", i+1, got, want)
		}
		if i <= 2*netsim.SegIndexMin || i%97 == 0 {
			for _, a := range w.pool[:i+2] {
				w.checkClaimed(a)
			}
			w.deliver(ipv4.ProtoIPIP, addr, 0)
		}
	}
	for i := 0; i < 4000; i++ {
		w.step()
	}
	for _, a := range w.pool {
		w.checkClaimed(a)
	}
}
