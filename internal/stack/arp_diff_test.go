package stack

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"mob4x4/internal/arp"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
	"mob4x4/internal/race"
	"mob4x4/internal/vtime"
)

// refCache is the reference model for the differential tests: the ARP
// cache as it was before segments shared a learning table. Every NIC
// learns the sender of every ARP frame it receives into its own map.
type refCache struct {
	entries      map[ipv4.Addr]refEntry
	hits, misses uint64
}

type refEntry struct {
	mac   netsim.MAC
	added int64
}

func (c *refCache) learn(ip ipv4.Addr, mac netsim.MAC, now int64) {
	if c.entries == nil {
		c.entries = make(map[ipv4.Addr]refEntry)
	}
	c.entries[ip] = refEntry{mac: mac, added: now}
}

func (c *refCache) lookup(ip ipv4.Addr, now, ttl int64) (netsim.MAC, bool) {
	e, ok := c.entries[ip]
	if !ok || (ttl > 0 && now-e.added > ttl) {
		if ok {
			delete(c.entries, ip)
		}
		c.misses++
		return 0, false
	}
	c.hits++
	return e.mac, true
}

func (c *refCache) flush()                  { clear(c.entries) }
func (c *refCache) invalidate(ip ipv4.Addr) { delete(c.entries, ip) }

const (
	diffLatency = vtime.Duration(1e6) // 1 ms on both segments
	diffTTL     = vtime.Duration(30e6)
)

var diffPrefix = ipv4.MustParsePrefix("10.0.0.0/24")

// diffWorld runs stack interfaces on two segments ("lan", where they all
// start, and "other") beside one reference cache per interface, fed from
// the fan-out the link layer used to do: at a frame's arrival, every NIC
// attached to the segment hears a broadcast, the addressee hears a
// unicast, and the sender hears nothing. The same fan-out says which
// interfaces must act on the frame, and the world checks that they did:
// each hearer waiting to resolve the sender drains, and each target or
// proxy holder of a request replies. A fault hook duplicates and
// corrupts frames at the configured rates.
type diffWorld struct {
	t     *testing.T
	name  string
	sim   *netsim.Sim
	lan   *netsim.Segment
	other *netsim.Segment
	ifcs  []*Iface
	ref   map[*Iface]*refCache
	rng   *rand.Rand
	// replies counts the ARP replies each interface sent; wantReplies
	// those the reference fan-out says it owed.
	replies, wantReplies map[*Iface]int
	// dupRate and corruptRate are the fault hook's per-frame odds.
	dupRate, corruptRate float64
	step                 int
}

func newDiffWorld(t *testing.T, name string, seed uint64, n int) *diffWorld {
	w := &diffWorld{
		t:           t,
		name:        name,
		sim:         netsim.NewSim(int64(seed)),
		ref:         make(map[*Iface]*refCache),
		rng:         rand.New(rand.NewPCG(seed, 0xa5)),
		replies:     make(map[*Iface]int),
		wantReplies: make(map[*Iface]int),
	}
	w.lan = w.sim.NewSegment("lan", netsim.SegmentOpts{Latency: diffLatency})
	w.other = w.sim.NewSegment("other", netsim.SegmentOpts{Latency: diffLatency})
	for _, seg := range []*netsim.Segment{w.lan, w.other} {
		seg.SetFaultHook(w.hook(seg))
	}
	for k := 0; k < n; k++ {
		h := NewHost(w.sim, fmt.Sprintf("h%d", k))
		h.ARPCacheTTL = diffTTL
		h.ARPTimeout = 5e6
		h.ARPRetries = 2
		ifc := h.AddIface("eth0", w.lan, diffPrefix.Host(k+1), diffPrefix)
		w.ifcs = append(w.ifcs, ifc)
		w.ref[ifc] = &refCache{}
	}
	return w
}

// hook impairs the frame and arranges for the reference caches to hear
// each copy at its arrival. The hearing event is scheduled before the
// segment schedules the delivery, so it runs just ahead of it; steps are
// all scheduled up front, so a step due at the same instant runs before
// both.
func (w *diffWorld) hook(seg *netsim.Segment) func(netsim.Frame) netsim.Impairment {
	return func(f netsim.Frame) netsim.Impairment {
		var imp netsim.Impairment
		imp.Duplicate = w.rng.Float64() < w.dupRate
		imp.Corrupt = w.rng.Float64() < w.corruptRate
		if f.Type == netsim.EtherTypeARP {
			if msg, err := arp.Unmarshal(f.Payload); err == nil && msg.Op == arp.OpReply {
				w.replies[w.owner(f.Src)]++
			}
			copies := 1
			if imp.Duplicate {
				copies = 2
			}
			for ; copies > 0; copies-- {
				w.sim.Sched.After(diffLatency, func() { w.hear(seg, f) })
			}
		}
		return imp
	}
}

func (w *diffWorld) hear(seg *netsim.Segment, f netsim.Frame) {
	msg, err := arp.Unmarshal(f.Payload)
	if err != nil {
		return
	}
	now := int64(w.sim.Now())
	var waiting []*Iface
	for _, n := range seg.NICs() {
		if n.MAC() == f.Src || (f.Dst != netsim.BroadcastMAC && f.Dst != n.MAC()) {
			continue
		}
		ifc := n.Owner().(*Iface)
		if !msg.SenderIP.IsZero() && msg.SenderIP != ifc.addr {
			w.ref[ifc].learn(msg.SenderIP, msg.SenderMAC, now)
			if ifc.job(msg.SenderIP) != nil {
				waiting = append(waiting, ifc)
			}
		}
		if msg.Op == arp.OpRequest && msg.SenderIP != msg.TargetIP &&
			(msg.TargetIP == ifc.addr && !ifc.addr.IsZero() || ifc.proxy.Contains(msg.TargetIP)) {
			w.wantReplies[ifc]++
		}
	}
	// Runs after the delivery (and its duplicate, if any) at this instant.
	w.sim.Sched.After(0, func() {
		for _, ifc := range waiting {
			if ifc.job(msg.SenderIP) != nil {
				w.t.Fatalf("%s: at %v %s still waits for %v after hearing it", w.name, w.sim.Now(), ifc.nic.Name(), msg.SenderIP)
			}
		}
		for _, ifc := range w.ifcs {
			if w.replies[ifc] != w.wantReplies[ifc] {
				w.t.Fatalf("%s: at %v %s sent %d ARP replies, owed %d", w.name, w.sim.Now(), ifc.nic.Name(), w.replies[ifc], w.wantReplies[ifc])
			}
		}
	})
}

func (w *diffWorld) owner(mac netsim.MAC) *Iface {
	for _, ifc := range w.ifcs {
		if ifc.nic.MAC() == mac {
			return ifc
		}
	}
	return nil
}

// at schedules one step of the schedule at virtual time t.
func (w *diffWorld) at(t vtime.Time, what string, fn func()) {
	w.sim.Sched.At(t, func() {
		w.step++
		fn()
		w.checkCounts(what)
	})
}

func (w *diffWorld) checkCounts(what string) {
	w.t.Helper()
	for _, ifc := range w.ifcs {
		r := w.ref[ifc]
		if ifc.cache.Hits != r.hits || ifc.cache.Misses != r.misses {
			w.t.Fatalf("%s: step %d (%s) at %v: %s hits/misses %d/%d, reference %d/%d",
				w.name, w.step, what, w.sim.Now(), ifc.nic.Name(),
				ifc.cache.Hits, ifc.cache.Misses, r.hits, r.misses)
		}
	}
}

func (w *diffWorld) now() int64 { return int64(w.sim.Now()) }

// lookup compares one Lookup on the real cache and the reference, and
// returns the real result.
func (w *diffWorld) lookup(ifc *Iface, ip ipv4.Addr) (netsim.MAC, bool) {
	w.t.Helper()
	mac, ok := ifc.cache.Lookup(ip, w.now(), int64(diffTTL))
	wantMAC, wantOK := w.ref[ifc].lookup(ip, w.now(), int64(diffTTL))
	if mac != wantMAC || ok != wantOK {
		w.t.Fatalf("%s: step %d at %v: %s Lookup(%v) = %v,%v, reference %v,%v",
			w.name, w.step, w.sim.Now(), ifc.nic.Name(), ip, mac, ok, wantMAC, wantOK)
	}
	return mac, ok
}

// resolve sends an IP packet to on-link ip, resolving it first; the
// reference mirrors the cache lookup resolveAndSend makes.
func (w *diffWorld) resolve(ifc *Iface, ip ipv4.Addr) {
	w.ref[ifc].lookup(ip, w.now(), int64(diffTTL))
	ifc.resolveAndSend(ip, ipv4.Packet{Header: ipv4.Header{Protocol: 99, Src: ifc.addr, Dst: ip}})
}

func (w *diffWorld) attach(ifc *Iface, seg *netsim.Segment) {
	ifc.Attach(seg)
	w.ref[ifc].flush()
}

func (w *diffWorld) detach(ifc *Iface) {
	ifc.Detach()
	w.ref[ifc].flush()
}

func (w *diffWorld) setAddr(ifc *Iface, addr ipv4.Addr) {
	ifc.SetAddr(addr, diffPrefix)
	w.ref[ifc].flush()
}

func (w *diffWorld) invalidate(ifc *Iface, ip ipv4.Addr) {
	ifc.cache.Invalidate(ip)
	w.ref[ifc].invalidate(ip)
}

func (w *diffWorld) run() {
	w.sim.Sched.Run()
	w.checkCounts("end of run")
}

// randomSchedule fills the world with steps drawn from its rng over the
// first span of virtual time: resolutions (broadcast requests, pending
// waiters, unicast and proxy replies), raw requests, gratuitous ARP for
// the sender's own, a proxied or somebody else's address, lookups across
// TTL expiry, invalidations, proxy changes, and moves between segments,
// detaches and readdressing.
func (w *diffWorld) randomSchedule(steps int, span vtime.Duration) {
	n := len(w.ifcs)
	// Addresses in play: every interface's initial address plus a few
	// nobody holds at the start.
	pool := make([]ipv4.Addr, 0, n+4)
	for k := 0; k < n+4; k++ {
		pool = append(pool, diffPrefix.Host(k+1))
	}
	addr := func() ipv4.Addr { return pool[w.rng.IntN(len(pool))] }
	for s := 0; s < steps; s++ {
		t := vtime.Time(w.rng.Int64N(int64(span)))
		ifc := w.ifcs[w.rng.IntN(n)]
		switch op := w.rng.IntN(100); {
		case op < 25:
			w.at(t, "resolve", func() { w.resolve(ifc, addr()) })
		case op < 50:
			w.at(t, "lookup", func() { w.lookup(ifc, addr()) })
		case op < 58:
			w.at(t, "request", func() { ifc.sendARPRequest(addr()) })
		case op < 68:
			w.at(t, "gratuitous", func() {
				if w.rng.IntN(2) == 0 {
					ifc.GratuitousARP(ifc.addr)
				} else {
					ifc.GratuitousARP(addr())
				}
			})
		case op < 74:
			w.at(t, "proxy", func() {
				if ip := addr(); w.rng.IntN(3) == 0 {
					ifc.RemoveProxy(ip)
				} else {
					ifc.AddProxy(ip)
				}
			})
		case op < 78:
			w.at(t, "invalidate", func() { w.invalidate(ifc, addr()) })
		case op < 84:
			w.at(t, "detach", func() { w.detach(ifc) })
		case op < 92:
			w.at(t, "attach lan", func() { w.attach(ifc, w.lan) })
		case op < 95:
			w.at(t, "attach other", func() { w.attach(ifc, w.other) })
		default:
			w.at(t, "set addr", func() { w.setAddr(ifc, addr()) })
		}
	}
}

// TestARPViewMatchesReferenceOnRandomSchedules is the differential test:
// seeded random schedules on 3–40 interfaces, compared with the
// reference caches on every lookup and on every hit and miss count.
// Segments of up to netsim.SegIndexMin NICs take the scan path, larger
// ones the index path. A failure names its seed; runRandomDiff(t, seed)
// replays it.
func TestARPViewMatchesReferenceOnRandomSchedules(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 40
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		runRandomDiff(t, seed)
	}
}

func runRandomDiff(t *testing.T, seed uint64) {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	n := 3 + r.IntN(38)
	w := newDiffWorld(t, fmt.Sprintf("seed %d (%d interfaces)", seed, n), seed, n)
	switch seed % 3 {
	case 1:
		w.dupRate = 0.1
	case 2:
		w.dupRate, w.corruptRate = 0.05, 0.05
	}
	w.randomSchedule(20*n+100, 400e6)
	w.run()
}

// diffSizes are the numbers of idle interfaces added to the named cases,
// so that they run on the scan path and on the index path.
func diffSizes() []int { return []int{0, 2 * netsim.SegIndexMin} }

// TestARPViewHomeAgentKeepsMobileMapping: a home agent's gratuitous ARP
// for a proxied home address must not hide the mapping it learned
// earlier from the mobile node itself — the agent never hears its own
// broadcast.
func TestARPViewHomeAgentKeepsMobileMapping(t *testing.T) {
	for _, pad := range diffSizes() {
		w := newDiffWorld(t, fmt.Sprintf("home agent (+%d)", pad), 1, 3+pad)
		ha, mn, ch := w.ifcs[0], w.ifcs[1], w.ifcs[2]
		home := mn.addr
		w.at(1e6, "mn announces", func() { mn.GratuitousARP(home) })
		w.at(5e6, "mn leaves", func() { w.detach(mn) })
		w.at(6e6, "ha proxies", func() {
			ha.AddProxy(home)
			ha.GratuitousARP(home)
		})
		w.at(10e6, "lookups", func() {
			if mac, ok := w.lookup(ha, home); !ok || mac != mn.nic.MAC() {
				t.Errorf("%s: agent's entry for the home address = %v,%v, want the mobile node's %v", w.name, mac, ok, mn.nic.MAC())
			}
			if mac, ok := w.lookup(ch, home); !ok || mac != ha.nic.MAC() {
				t.Errorf("%s: neighbour's entry for the home address = %v,%v, want the agent's %v", w.name, mac, ok, ha.nic.MAC())
			}
		})
		w.run()
	}
}

// TestARPViewExpiredEntryStaysGone: an entry that expired must not come
// back from the segment table; a fresh broadcast brings it back.
func TestARPViewExpiredEntryStaysGone(t *testing.T) {
	for _, pad := range diffSizes() {
		w := newDiffWorld(t, fmt.Sprintf("expiry (+%d)", pad), 1, 2+pad)
		a, b := w.ifcs[0], w.ifcs[1]
		want := func(ok bool) func() {
			return func() {
				if _, got := w.lookup(a, b.addr); got != ok {
					t.Errorf("%s: at %v lookup ok = %v, want %v", w.name, w.sim.Now(), got, ok)
				}
			}
		}
		w.at(1e6, "b announces", func() { b.GratuitousARP(b.addr) })
		w.at(5e6, "fresh", want(true))
		w.at(50e6, "expired", want(false))
		w.at(51e6, "still expired", want(false))
		w.at(60e6, "b announces again", func() { b.GratuitousARP(b.addr) })
		w.at(65e6, "fresh again", want(true))
		w.at(66e6, "invalidated", func() { w.invalidate(a, b.addr) })
		w.at(67e6, "stays invalidated", want(false))
		w.run()
	}
}

// TestARPViewAttachInFlightHears: a NIC that attaches while a broadcast
// is in flight hears it, and so does one that hops to another segment
// and back before it lands: what counts is who is attached at arrival.
func TestARPViewAttachInFlightHears(t *testing.T) {
	for _, pad := range diffSizes() {
		w := newDiffWorld(t, fmt.Sprintf("in flight (+%d)", pad), 1, 4+pad)
		b, c, d := w.ifcs[1], w.ifcs[2], w.ifcs[3]
		w.at(5e5, "c leaves", func() { w.detach(c) })
		w.at(1e6, "b announces", func() { b.GratuitousARP(b.addr) })
		w.at(15e5, "c returns", func() { w.attach(c, w.lan) })
		w.at(18e5, "d hops off and on", func() {
			w.attach(d, w.other)
			w.attach(d, w.lan)
		})
		w.at(3e6, "lookups", func() {
			if mac, ok := w.lookup(c, b.addr); !ok || mac != b.nic.MAC() {
				t.Errorf("%s: late joiner's entry = %v,%v, want %v", w.name, mac, ok, b.nic.MAC())
			}
			if _, ok := w.lookup(d, b.addr); !ok {
				t.Errorf("%s: d re-attached before the frame landed and must hear it", w.name)
			}
		})
		w.run()
	}
}

// TestARPViewWaitersDrainInSegmentOrder: two interfaces waiting to
// resolve the same neighbour both drain on its broadcast, in segment
// slot order — not in the order they started waiting.
func TestARPViewWaitersDrainInSegmentOrder(t *testing.T) {
	for _, pad := range diffSizes() {
		w := newDiffWorld(t, fmt.Sprintf("waiters (+%d)", pad), 1, 3+pad)
		a, b, c := w.ifcs[0], w.ifcs[1], w.ifcs[2]
		var got []ipv4.Addr
		b.host.Handle(99, func(_ *Iface, pkt ipv4.Packet) { got = append(got, pkt.Src) })
		// Re-attaching a moves it to the last slot: c now precedes it.
		w.at(1e5, "a re-attaches", func() { w.attach(a, w.lan) })
		// b is deaf to requests for its address while it has none, so
		// the two resolutions wait until b announces itself.
		w.at(2e5, "b readdresses", func() {
			w.setAddr(b, diffPrefix.Host(200))
			// Builds the segment's state before anybody waits, so that
			// a's wait is known before c's.
			b.GratuitousARP(b.addr)
		})
		w.at(1e6, "a waits", func() { w.resolve(a, diffPrefix.Host(2)) })
		w.at(2e6, "c waits", func() { w.resolve(c, diffPrefix.Host(2)) })
		// ...and only after both requests went unanswered.
		w.at(35e5, "b returns", func() {
			w.setAddr(b, diffPrefix.Host(2))
			b.GratuitousARP(b.addr)
		})
		w.run()
		if want := []ipv4.Addr{c.addr, a.addr}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: drained packets reached b from %v, want %v", w.name, got, want)
		}
	}
}

// TestBroadcastARPCostIndependentOfSegmentSize pins the point of the
// segment table: on a segment of 512 idle hosts, a broadcast ARP request
// for an address nobody holds is one table write. It calls back no
// receiver, allocates nothing, and still counts 511 deliveries.
func TestBroadcastARPCostIndependentOfSegmentSize(t *testing.T) {
	const hosts = 512
	sim := netsim.NewSim(1)
	seg := sim.NewSegment("lan", netsim.SegmentOpts{Latency: 1e6})
	prefix := ipv4.MustParsePrefix("10.1.0.0/16")
	calls := 0
	var asker *Iface
	for k := 0; k < hosts; k++ {
		ifc := NewHost(sim, fmt.Sprintf("h%d", k)).AddIface("eth0", seg, prefix.Host(k+1), prefix)
		ifc.nic.SetReceiver(func(n *netsim.NIC, f netsim.Frame) {
			calls++
			ifc.receiveFrame(n, f)
		})
		if asker == nil {
			asker = ifc
		}
	}
	absent := prefix.Host(60000)
	ask := func() {
		asker.sendARPRequest(absent)
		sim.Sched.Run()
	}
	ask() // the first broadcast builds the segment's table and index
	calls = 0
	before := seg.Delivered
	ask()
	if calls != 0 {
		t.Errorf("a broadcast request for an absent address called %d receivers, want 0", calls)
	}
	if got := seg.Delivered - before; got != hosts-1 {
		t.Errorf("Delivered grew by %d, want %d", got, hosts-1)
	}
	if race.Enabled {
		return // allocation counts are unstable under the race detector
	}
	if allocs := testing.AllocsPerRun(100, ask); allocs != 0 {
		t.Errorf("a broadcast request allocated %.1f times, want 0", allocs)
	}
}
