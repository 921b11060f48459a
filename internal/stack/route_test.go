package stack

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
	"mob4x4/internal/race"
)

func TestLookupLongestPrefixWins(t *testing.T) {
	rt := NewRouteTable()
	rt.Add(Route{Prefix: ipv4.MustParsePrefix("0.0.0.0/0"), Metric: 100, Name: "default"})
	rt.Add(Route{Prefix: ipv4.MustParsePrefix("10.0.0.0/8"), Metric: 10, Name: "net10"})
	rt.Add(Route{Prefix: ipv4.MustParsePrefix("10.1.0.0/16"), Metric: 10, Name: "net10-1"})
	rt.Add(Route{Prefix: ipv4.MustParsePrefix("10.1.2.0/24"), Metric: 10, Name: "net10-1-2"})

	cases := map[string]string{
		"10.1.2.3": "net10-1-2",
		"10.1.9.9": "net10-1",
		"10.9.9.9": "net10",
		"11.0.0.1": "default",
	}
	for addr, want := range cases {
		r, ok := rt.Lookup(ipv4.MustParseAddr(addr))
		if !ok || r.Name != want {
			t.Errorf("Lookup(%s) = %q,%v, want %q", addr, r.Name, ok, want)
		}
	}
}

func TestLookupMetricTieBreak(t *testing.T) {
	rt := NewRouteTable()
	rt.Add(Route{Prefix: ipv4.MustParsePrefix("10.0.0.0/8"), Metric: 20, Name: "worse"})
	rt.Add(Route{Prefix: ipv4.MustParsePrefix("10.0.0.0/8"), Metric: 5, Name: "better"})
	r, ok := rt.Lookup(ipv4.MustParseAddr("10.1.1.1"))
	if !ok || r.Name != "better" {
		t.Errorf("got %q", r.Name)
	}
}

func TestLookupInsertionOrderTieBreak(t *testing.T) {
	rt := NewRouteTable()
	rt.Add(Route{Prefix: ipv4.MustParsePrefix("10.0.0.0/8"), Metric: 5, Name: "first"})
	rt.Add(Route{Prefix: ipv4.MustParsePrefix("10.0.0.0/8"), Metric: 5, Name: "second"})
	r, _ := rt.Lookup(ipv4.MustParseAddr("10.1.1.1"))
	if r.Name != "first" {
		t.Errorf("got %q, want first-inserted", r.Name)
	}
}

func TestLookupMiss(t *testing.T) {
	rt := NewRouteTable()
	rt.Add(Route{Prefix: ipv4.MustParsePrefix("10.0.0.0/8")})
	if _, ok := rt.Lookup(ipv4.MustParseAddr("11.0.0.1")); ok {
		t.Error("miss reported as hit")
	}
}

func TestRemoveVariants(t *testing.T) {
	rt := NewRouteTable()
	p := ipv4.MustParsePrefix("10.0.0.0/8")
	rt.Add(Route{Prefix: p, Name: "a"})
	rt.Add(Route{Prefix: p, Name: "b"})
	rt.Add(Route{Prefix: ipv4.MustParsePrefix("11.0.0.0/8"), Name: "keep"})
	rt.Remove(p)
	if rt.Len() != 1 {
		t.Errorf("len = %d after Remove", rt.Len())
	}
	rt.Add(Route{Prefix: p, Output: func(ipv4.Packet) {}, Name: "virt"})
	rt.RemoveVirtual("virt")
	if rt.Len() != 1 {
		t.Errorf("len = %d after RemoveVirtual", rt.Len())
	}
	rt.Clear()
	if rt.Len() != 0 {
		t.Error("Clear incomplete")
	}
}

func TestDumpSortsBySpecificity(t *testing.T) {
	rt := NewRouteTable()
	rt.Add(Route{Prefix: ipv4.MustParsePrefix("0.0.0.0/0"), Metric: 100})
	rt.Add(Route{Prefix: ipv4.MustParsePrefix("10.1.2.0/24"), Metric: 10})
	dump := rt.Dump()
	if !strings.Contains(dump, "10.1.2.0/24") {
		t.Errorf("dump missing route:\n%s", dump)
	}
	if strings.Index(dump, "10.1.2.0/24") > strings.Index(dump, "0.0.0.0/0") {
		t.Error("dump not most-specific-first")
	}
}

func TestRouteString(t *testing.T) {
	virt := Route{Prefix: ipv4.MustParsePrefix("0.0.0.0/0"), Output: func(ipv4.Packet) {}, Name: "tun"}
	if !strings.Contains(virt.String(), "virtual(tun)") {
		t.Errorf("virtual route string: %s", virt)
	}
	if !virt.IsVirtual() {
		t.Error("IsVirtual false for virtual route")
	}
}

// TestRouteTableDifferential is the route-table property test. Random
// sequences of Add, Remove, RemoveConnected, RemoveVirtual, Clear and
// Lookup run against the table and against a shadow slice kept in
// insertion order; every lookup must pick the route a brute-force scan of
// the shadow picks (longest prefix, then lowest metric, then first
// inserted), and Dump must list the shadow in that same order. Prefixes
// come from a small pool so that /0, /32, overlapping prefixes, unmasked
// prefix addresses and equal (bits, metric) ties are all common.
func TestRouteTableDifferential(t *testing.T) {
	sim := netsim.NewSim(1)
	h := NewHost(sim, "h")
	ifcs := []*Iface{
		h.AddIface("e0", nil, ipv4.MustParseAddr("10.0.0.1"), ipv4.Prefix{}),
		h.AddIface("e1", nil, ipv4.MustParseAddr("10.0.0.2"), ipv4.Prefix{}),
	}
	bases := []uint32{0x0a000000, 0x0a010000, 0x0a010200, 0x0a0102ff, 0xac100000, 0xffffffff}
	bitsPool := []int{0, 8, 16, 24, 30, 32}
	tunnels := []string{"tunA", "tunB"}

	brute := func(shadow []Route, dst ipv4.Addr) (Route, bool) {
		best := -1
		for i, r := range shadow {
			if !r.Prefix.Contains(dst) {
				continue
			}
			if best < 0 ||
				r.Prefix.Bits > shadow[best].Prefix.Bits ||
				(r.Prefix.Bits == shadow[best].Prefix.Bits && r.Metric < shadow[best].Metric) {
				best = i
			}
		}
		if best < 0 {
			return Route{}, false
		}
		return shadow[best], true
	}
	// Every route is told apart by (Name, NextHop): plain routes carry a
	// unique Name, virtual routes a shared tunnel name and a unique NextHop.
	same := func(a, b Route) bool {
		return a.Prefix == b.Prefix && a.NextHop == b.NextHop && a.Iface == b.Iface &&
			a.Metric == b.Metric && a.Name == b.Name && a.IsVirtual() == b.IsVirtual()
	}

	for seq := 0; seq < 200; seq++ {
		rng := rand.New(rand.NewSource(int64(seq)))
		rt := NewRouteTable()
		var shadow []Route
		serial := uint32(0)
		prefix := func() ipv4.Prefix {
			if len(shadow) > 0 && rng.Intn(3) == 0 {
				return shadow[rng.Intn(len(shadow))].Prefix
			}
			addr := ipv4.AddrFromUint32(bases[rng.Intn(len(bases))] ^ uint32(rng.Intn(4)))
			bits := bitsPool[rng.Intn(len(bitsPool))]
			if rng.Intn(4) == 0 {
				bits = rng.Intn(33)
			}
			if rng.Intn(2) == 0 {
				return ipv4.Prefix{Addr: addr, Bits: bits} // host bits left set
			}
			return ipv4.PrefixFrom(addr, bits)
		}
		dest := func() ipv4.Addr {
			switch rng.Intn(3) {
			case 0:
				return ipv4.AddrFromUint32(rng.Uint32())
			case 1:
				if len(shadow) > 0 {
					p := shadow[rng.Intn(len(shadow))].Prefix
					return ipv4.AddrFromUint32(p.Addr.Uint32()&p.Mask() | rng.Uint32()&^p.Mask())
				}
			}
			return ipv4.AddrFromUint32(bases[rng.Intn(len(bases))] ^ uint32(rng.Intn(512)))
		}

		for step := 0; step < 150; step++ {
			var op string
			switch n := rng.Intn(100); {
			case n < 45:
				serial++
				r := Route{Prefix: prefix(), Iface: ifcs[rng.Intn(len(ifcs))], Metric: rng.Intn(3) * 50}
				switch rng.Intn(4) {
				case 0: // connected: on-link, metric 0
					r.Metric, r.Name = 0, fmt.Sprintf("c%d", serial)
				case 1:
					r.Iface, r.Output = nil, func(ipv4.Packet) {}
					r.Name, r.NextHop = tunnels[rng.Intn(len(tunnels))], ipv4.AddrFromUint32(serial)
				default:
					r.NextHop, r.Name = ipv4.AddrFromUint32(serial), fmt.Sprintf("g%d", serial)
				}
				op = "Add " + r.String()
				rt.Add(r)
				shadow = append(shadow, r)
			case n < 55:
				p := prefix()
				op = "Remove " + p.String()
				rt.Remove(p)
				shadow = slices.DeleteFunc(shadow, func(r Route) bool { return r.Prefix == p })
			case n < 62:
				ifc := ifcs[rng.Intn(len(ifcs))]
				op = "RemoveConnected " + ifc.nic.Name()
				rt.RemoveConnected(ifc)
				shadow = slices.DeleteFunc(shadow, func(r Route) bool {
					return r.Iface == ifc && r.NextHop.IsZero() && !r.IsVirtual() && r.Metric == 0
				})
			case n < 69:
				name := tunnels[rng.Intn(len(tunnels))]
				op = "RemoveVirtual " + name
				rt.RemoveVirtual(name)
				shadow = slices.DeleteFunc(shadow, func(r Route) bool { return r.IsVirtual() && r.Name == name })
			case n < 71:
				op = "Clear"
				rt.Clear()
				shadow = nil
			default:
				op = "Lookup"
			}
			if rt.Len() != len(shadow) {
				t.Fatalf("seq %d step %d (%s): Len = %d, shadow holds %d", seq, step, op, rt.Len(), len(shadow))
			}
			for k := 0; k < 4; k++ {
				dst := dest()
				got, okGot := rt.Lookup(dst)
				want, okWant := brute(shadow, dst)
				if okGot != okWant || okGot && !same(got, want) {
					t.Fatalf("seq %d step %d (%s): Lookup(%v) = %v [%s],%v, brute force %v [%s],%v",
						seq, step, op, dst, got, got.Name, okGot, want, want.Name, okWant)
				}
			}
		}
		ordered := slices.Clone(shadow)
		slices.SortStableFunc(ordered, func(a, b Route) int {
			if a.Prefix.Bits != b.Prefix.Bits {
				return b.Prefix.Bits - a.Prefix.Bits
			}
			return a.Metric - b.Metric
		})
		var want strings.Builder
		for _, r := range ordered {
			fmt.Fprintln(&want, r)
		}
		if got := rt.Dump(); got != want.String() {
			t.Fatalf("seq %d: Dump =\n%s\nwant\n%s", seq, got, want.String())
		}
	}
}

// TestRouteTableFootprint pins what a route table costs a host: two slice
// headers inline, and for a visitor-shaped host the bytes it allocates.
// The host is built as a fleet visitor is: one interface with its
// connected route, a default route, an ICMP handler, a claim on the home
// address and two UDP sockets. A per-table array such as a lookup cache,
// an eager reassembler or a map per demux table would break the pin.
func TestRouteTableFootprint(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	if got, want := unsafe.Sizeof(RouteTable{}), 2*unsafe.Sizeof([]Route(nil)); got != want {
		t.Errorf("unsafe.Sizeof(RouteTable{}) = %d, want %d (two slice headers)", got, want)
	}
	sim := netsim.NewSim(1)
	seg := sim.NewSegment("cell", netsim.SegmentOpts{})
	cell := ipv4.MustParsePrefix("10.1.0.0/16")
	home := ipv4.MustParseAddr("36.1.0.2")
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h := NewHost(sim, "v")
			ifc := h.AddIface("eth0", seg, cell.Host(2+i%60000), cell)
			h.Routes().AddDefault(ifc, cell.Host(1))
			h.Handle(ipv4.ProtoICMP, func(*Iface, ipv4.Packet) {})
			h.Claim(home, nil)
			for range 2 {
				if _, err := h.OpenUDP(ipv4.Zero, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got > visitorHostBytes {
		t.Errorf("visitor-shaped host allocates %d B, want <= %d", got, visitorHostBytes)
	}
}

// visitorHostBytes bounds TestRouteTableFootprint's visitor-shaped host:
// about 1,180 B on linux/amd64 (1,660 B with a Go map per demux table, a
// UDP demux closure and an eager reassembler), plus headroom for the
// amortized growth of the segment's slices.
const visitorHostBytes = 1268

// routeSink keeps benchmarked lookups from being optimized away.
var routeSink Route

// BenchmarkRouteLookup is the DESIGN.md route-lookup ablation: cost of a
// lookup in a realistic-size table, with and without a mobility override
// layered in front.
func BenchmarkRouteLookup(b *testing.B) {
	rt := NewRouteTable()
	for i := 0; i < 32; i++ {
		rt.Add(Route{
			Prefix: ipv4.PrefixFrom(ipv4.AddrFromUint32(uint32(i)<<24), 8),
			Metric: i,
		})
	}
	dst := ipv4.MustParseAddr("17.5.0.2")
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rt.Lookup(dst)
		}
	})
	b.Run("backbone", func(b *testing.B) {
		// A fleet hub router (bb0..bb3, hagw, fargw): 37 /30 transfer
		// links, 33 /16 LANs (the home LAN and 32 cells) and the far /24,
		// probed in turn with 2,048 destinations spread over them.
		hub := NewRouteTable()
		for i := 0; i < 37; i++ {
			hub.Add(Route{Prefix: ipv4.PrefixFrom(ipv4.AddrFromUint32(0x0ac80004+uint32(4*i)), 30), Metric: i % 2})
		}
		lans := []ipv4.Prefix{ipv4.MustParsePrefix("36.1.0.0/16")}
		for i := 0; i < 32; i++ {
			lans = append(lans, ipv4.PrefixFrom(ipv4.AddrFromUint32(0x0a000000+uint32(i+1)<<16), 16))
		}
		lans = append(lans, ipv4.MustParsePrefix("17.5.1.0/24"))
		for _, p := range lans {
			hub.Add(Route{Prefix: p, NextHop: ipv4.MustParseAddr("10.200.0.6"), Metric: 1})
		}
		rng := rand.New(rand.NewSource(1))
		dsts := make([]ipv4.Addr, 2048)
		for i := range dsts {
			if i%8 == 0 { // a router's own link address
				dsts[i] = ipv4.AddrFromUint32(0x0ac80005 + uint32(4*rng.Intn(37)))
				continue
			}
			p := lans[rng.Intn(len(lans))]
			dsts[i] = p.Host(2 + rng.Intn(250))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			routeSink, _ = hub.Lookup(dsts[i%len(dsts)])
		}
	})
	b.Run("with-policy-override", func(b *testing.B) {
		// The paper's design: a policy consultation before the table.
		override := func(pkt *ipv4.Packet) (Route, bool) { return Route{}, false }
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pkt := ipv4.Packet{Header: ipv4.Header{Dst: dst}}
			if _, ok := override(&pkt); !ok {
				rt.Lookup(dst)
			}
		}
	})
}
