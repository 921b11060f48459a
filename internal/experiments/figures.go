package experiments

import (
	"fmt"
	"strings"

	"mob4x4/internal/core"
	"mob4x4/internal/dnssim"
	"mob4x4/internal/icmp"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/vtime"
)

// Fig1Result reproduces Figure 1 (Basic Mobile IP): the asymmetric paths
// of a conversation between a conventional correspondent and a roaming
// mobile host.
type Fig1Result struct {
	Ping         PingResult
	HATunneled   uint64
	MHDetunneled uint64
}

// RunFig1 executes experiment E1.
func RunFig1(seed int64) Fig1Result {
	s := Build(Options{Seed: seed, Selector: core.NewSelector(core.StartOptimistic)})
	s.Roam()
	var r Fig1Result
	r.Ping = s.PingFrom(s.CHFarIC, s.CHFar, s.MN.Home(), 5*Second)
	r.HATunneled = s.HA.Stats.Forwarded
	r.MHDetunneled = s.MN.Stats.Decaps
	return r
}

func (r Fig1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 — Basic Mobile IP (conventional CH, roaming MH)\n")
	fmt.Fprintf(&b, "  delivered:       %v (reply from %s)\n", r.Ping.Delivered, r.Ping.ReplySource)
	fmt.Fprintf(&b, "  request (In-IE): %d hops  %s\n", r.Ping.RequestHops, r.Ping.RequestPath)
	fmt.Fprintf(&b, "  reply  (Out-DH): %d hops  %s\n", r.Ping.ReplyHops, r.Ping.ReplyPath)
	fmt.Fprintf(&b, "  asymmetry:       request travels %+d hops vs reply\n", r.Ping.RequestHops-r.Ping.ReplyHops)
	fmt.Fprintf(&b, "  HA tunneled=%d, MH detunneled=%d\n", r.HATunneled, r.MHDetunneled)
	return b.String()
}

// Fig2Row is one outgoing mode's fate under source-address filtering.
type Fig2Row struct {
	Mode        core.OutMode
	Sent        int
	Delivered   int
	FilterDrops uint64 // drops recorded at the home boundary during the run
	Path        string
}

// Fig2Result reproduces Figure 2 (and Figure 3, which is the Out-IE row):
// a mobile host away from home replying to a correspondent inside its
// (filtering) home domain.
type Fig2Result struct {
	FilterOn bool
	Rows     []Fig2Row
}

// RunFig2 executes experiments E2+E3. With filterOn, Out-DH dies at the
// home boundary router (Figure 2) while Out-IE and Out-DE survive
// (Figure 3); with it off, everything is delivered.
func RunFig2(seed int64, filterOn bool) Fig2Result {
	res := Fig2Result{FilterOn: filterOn}
	for _, mode := range []core.OutMode{core.OutDH, core.OutDE, core.OutIE} {
		sel := core.NewSelector(core.StartPessimistic)
		m := mode
		sel.AddRule(core.Rule{Prefix: ipv4.MustParsePrefix("0.0.0.0/0"), ForceMode: &m})
		s := Build(Options{
			Seed:       seed,
			HomeFilter: filterOn,
			Selector:   sel,
			// The Out-DE row needs the target to decapsulate ("recent
			// versions of Linux", Section 6.1); the other rows are
			// unaffected by this capability.
			CHDecap: true,
		})
		s.Roam()

		// The MH pings the correspondent inside its home domain. (MH
		// initiates, so we observe the MH->CH direction: exactly the
		// packets Figure 2 is about.)
		const count = 5
		row := Fig2Row{Mode: mode, Sent: count}
		var delivered int
		prevIC := s.CHHomeIC.OnEchoRequest
		s.CHHomeIC.OnEchoRequest = func(src ipv4.Addr, _ icmp.Message) { delivered++ }
		dropsBefore := homeBoundaryDrops(s)
		log, stop := s.Net.Sim.Trace.Capture()
		for i := 0; i < count; i++ {
			_ = s.MHICMP.Ping(ipv4.Zero, s.CHHome.FirstAddr(), 0x0f02, uint16(i+1), []byte("fig2"))
			s.Net.RunFor(2 * Second)
		}
		stop()
		s.CHHomeIC.OnEchoRequest = prevIC
		row.Delivered = delivered
		row.FilterDrops = homeBoundaryDrops(s) - dropsBefore
		// Path of the last request.
		var lastReqID uint64
		for id := log.Send("mh", 0); id != 0; id = log.Send("mh", id) {
			lastReqID = id
		}
		row.Path = log.Path(lastReqID)
		res.Rows = append(res.Rows, row)
	}
	return res
}

func homeBoundaryDrops(s *Scenario) uint64 {
	if s.HomeGW.Filter == nil {
		return 0
	}
	return s.HomeGW.Filter.IngressDrops + s.HomeGW.Filter.EgressDrops
}

func (r Fig2Result) String() string {
	var b strings.Builder
	title := "off (all modes deliverable)"
	if r.FilterOn {
		title = "ON (Figures 2 & 3)"
	}
	fmt.Fprintf(&b, "Figures 2/3 — source-address filtering %s\n", title)
	fmt.Fprintf(&b, "  %-7s %9s %10s %12s  path\n", "mode", "sent", "delivered", "filterdrops")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-7s %9d %10d %12d  %s\n", row.Mode, row.Sent, row.Delivered, row.FilterDrops, row.Path)
	}
	return b.String()
}

// Fig4Row is one point of the triangle-routing sweep.
type Fig4Row struct {
	HADistance int
	InIERTT    vtime.Duration // RTT via home agent (conventional CH)
	InDERTT    vtime.Duration // RTT with direct delivery (smart CH)
	InIEHops   int
	InDEHops   int
}

// RunFig4 executes experiment E4: the correspondent is one LAN away from
// the mobile host, and the home agent's distance from the backbone is
// swept. Indirect delivery cost grows with home-agent distance; direct
// delivery does not (Figure 4's "more efficient if a correspondent host
// could discover that the mobile host is nearby").
func RunFig4(seed int64, distances []int) []Fig4Row {
	var rows []Fig4Row
	for _, d := range distances {
		row := Fig4Row{HADistance: d}

		// Conventional correspondent: everything via the home agent.
		s := Build(Options{Seed: seed, HADistance: d, Selector: core.NewSelector(core.StartOptimistic)})
		s.Roam()
		p := s.PingFrom(s.CHNearIC, s.CHNear, s.MN.Home(), 20*Second)
		row.InIERTT, row.InIEHops = p.RTT, p.RequestHops

		// Smart correspondent with the binding already learned: In-DE.
		s2 := Build(Options{Seed: seed, HADistance: d, CHAware: true, CHDecap: true,
			Selector: core.NewSelector(core.StartOptimistic)})
		careOf := s2.Roam()
		s2.CHNearC.LearnBinding(core.Binding{Home: s2.MN.Home(), CareOf: careOf}, 0)
		p2 := s2.PingFrom(s2.CHNearIC, s2.CHNear, s2.MN.Home(), 20*Second)
		row.InDERTT, row.InDEHops = p2.RTT, p2.RequestHops

		rows = append(rows, row)
	}
	return rows
}

// Fig4Table renders the sweep.
func Fig4Table(rows []Fig4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 — triangle routing vs home-agent distance (CH one LAN from MH)\n")
	fmt.Fprintf(&b, "  %-10s %14s %14s %10s %10s %8s\n", "HAdist", "In-IE RTT", "In-DE RTT", "IE hops", "DE hops", "ratio")
	for _, r := range rows {
		ratio := float64(r.InIERTT) / float64(r.InDERTT)
		fmt.Fprintf(&b, "  %-10d %14v %14v %10d %10d %8.2f\n",
			r.HADistance, r.InIERTT, r.InDERTT, r.InIEHops, r.InDEHops, ratio)
	}
	return b.String()
}

// Fig5Result reproduces Figure 5 / experiment E5: a smart correspondent
// learns the care-of address (via the HA's ICMP binding notice, and
// separately via a DNS CA record) and switches from indirect to direct
// delivery.
type Fig5Result struct {
	// Pings in order; the first goes via the HA, later ones directly.
	Hops         []int
	RTTs         []vtime.Duration
	SwitchedAt   int // index of the first direct delivery (-1 if never)
	ViaDNSWorked bool
	DNSCareOf    ipv4.Addr
}

// RunFig5 executes experiment E5.
func RunFig5(seed int64) Fig5Result {
	s := Build(Options{
		Seed: seed, Notices: true, CHAware: true, CHDecap: true, WithServices: true,
		Selector: core.NewSelector(core.StartOptimistic),
	})
	careOf := s.Roam()

	res := Fig5Result{SwitchedAt: -1}
	const count = 4
	for i := 0; i < count; i++ {
		p := s.PingFrom(s.CHFarIC, s.CHFar, s.MN.Home(), 20*Second)
		res.Hops = append(res.Hops, p.RequestHops)
		res.RTTs = append(res.RTTs, p.RTT)
		if res.SwitchedAt < 0 && s.CHFarC.Stats.SentInDE > 0 {
			res.SwitchedAt = i
		}
	}

	// Second discovery mechanism: the DNS CA record. The MH registers
	// its care-of address; a resolver on the far host sees both records.
	s.DNS.SetCA("mh.mosquitonet.stanford.edu", careOf, 120)
	resolver, err := dnssim.NewResolver(s.CHFar, s.Net.Host("dns").FirstAddr())
	if err == nil {
		resolver.Query("mh.mosquitonet.stanford.edu", func(recs []dnssim.Record, qerr error) {
			if qerr != nil {
				return
			}
			if addr, isCareOf, ok := dnssim.BestAddr(recs); ok && isCareOf && addr == careOf {
				res.ViaDNSWorked = true
				res.DNSCareOf = addr
			}
		})
		s.Net.RunFor(5 * Second)
	}
	return res
}

func (r Fig5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — smart correspondent host (binding discovery)\n")
	for i, h := range r.Hops {
		mode := "In-IE (via HA)"
		if r.SwitchedAt >= 0 && i >= r.SwitchedAt {
			mode = "In-DE (direct)"
		}
		fmt.Fprintf(&b, "  ping %d: %2d hops  rtt=%-10v %s\n", i+1, h, r.RTTs[i], mode)
	}
	fmt.Fprintf(&b, "  ICMP notice switch after ping %d; DNS CA discovery worked: %v (%s)\n",
		r.SwitchedAt+1, r.ViaDNSWorked, r.DNSCareOf)
	return b.String()
}
