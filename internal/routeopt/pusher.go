package routeopt

import (
	"fmt"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/mobileip"
	"mob4x4/internal/netsim"
	"mob4x4/internal/stack"
	"mob4x4/internal/udp"
	"mob4x4/internal/vtime"
)

// PushStats counts one push engine's activity (shared by the MN-push
// Updater and the HA-push HAUpdater). The owning wrapper registers it
// with its Sim's registry as a metrics.Source.
type PushStats struct {
	UpdatesSent  uint64
	Retransmits  uint64
	Acks         uint64
	Nacks        uint64
	Abandons     uint64
	PeersTracked uint64 // distinct peer slot installs (re-installs count)
}

// Report implements metrics.Source.
func (s *PushStats) Report(a *metrics.Adder) {
	a.Counter("ro/updates_sent", s.UpdatesSent)
	a.Counter("ro/update_retransmits", s.Retransmits)
	a.Counter("ro/update_acks", s.Acks)
	a.Counter("ro/update_nacks", s.Nacks)
	a.Counter("ro/update_abandons", s.Abandons)
}

// Push tuning, shared by both updaters.
const (
	// pushLifetime is the cache TTL advertised in updates (seconds).
	// Short by design: an expired entry falls back to In-IE, so the TTL
	// bounds how long a lost revocation can misroute.
	pushLifetime = 20
	// pushRetry is the per-peer retransmission interval; pushMaxRetries
	// bounds transmissions per push.
	pushRetry      = vtime.Duration(500e6) // 500ms
	pushMaxRetries = 3
	// pushMaxPeers bounds the tracked-correspondent table. Beyond it the
	// least-recently-active peer is evicted — it keeps its cached
	// binding until TTL expiry and then degrades to In-IE.
	pushMaxPeers = 8
)

// pushSlot is one tracked correspondent. Slots live in a fixed-size
// linear table: the peer set of one mobile host is small (the paper's
// conversations are few), a scan beats a map on the per-packet tracking
// path, and slot order is a pure function of traffic history, so the
// retransmission schedule is deterministic.
type pushSlot struct {
	peer       ipv4.Addr
	active     bool
	lastActive vtime.Time
	awaiting   bool
	awaitingID uint64
	tries      int
	timer      *vtime.Timer
}

// pusher is the per-home push engine: it tracks the correspondents a
// binding's traffic touches and, on handoff, sends each an
// authenticated binding update with bounded retransmission. One pusher
// serves one home address; the MN-push Updater owns exactly one, the
// HA-push HAUpdater one per provisioned home.
type pusher struct {
	host  *stack.Host
	sock  *stack.UDPSocket
	home  ipv4.Addr
	auth  *mobileip.Authenticator // nil: unsigned updates
	stats *PushStats

	// srcAddr yields the source address for outgoing updates at send
	// time (the MN's current care-of address moves under the pusher).
	srcAddr func() ipv4.Addr

	careOf ipv4.Addr // last pushed care-of address
	// ids issues update identifications in the registration scheme, so
	// receiver-side replay windows order by them.
	ids   mobileip.IDClock
	slots []pushSlot
}

func newPusher(host *stack.Host, sock *stack.UDPSocket, home ipv4.Addr,
	auth *mobileip.Authenticator, stats *PushStats, srcAddr func() ipv4.Addr) *pusher {
	return &pusher{
		host: host, sock: sock, home: home, auth: auth,
		stats: stats, srcAddr: srcAddr,
		slots: make([]pushSlot, 0, pushMaxPeers),
	}
}

// notePeer records traffic to peer, installing or refreshing its slot.
// This runs per outgoing packet: linear scan, no allocation.
func (p *pusher) notePeer(peer ipv4.Addr) {
	now := p.host.Sim().Now()
	for i := range p.slots {
		if p.slots[i].active && p.slots[i].peer == peer {
			p.slots[i].lastActive = now
			return
		}
	}
	// Not tracked: reuse an inactive slot, grow below capacity, or
	// evict the least-recently-active peer (ties break on the lowest
	// index — deterministic).
	victim := -1
	for i := range p.slots {
		if !p.slots[i].active {
			victim = i
			break
		}
	}
	if victim < 0 && len(p.slots) < cap(p.slots) {
		p.slots = append(p.slots, pushSlot{})
		victim = len(p.slots) - 1
	}
	if victim < 0 {
		for i := range p.slots {
			if victim < 0 || p.slots[i].lastActive < p.slots[victim].lastActive {
				victim = i
			}
		}
	}
	s := &p.slots[victim]
	s.timer.Stop()
	*s = pushSlot{peer: peer, active: true, lastActive: now, timer: s.timer}
	p.stats.PeersTracked++
}

// push tells every tracked correspondent the new care-of address.
func (p *pusher) push(careOf ipv4.Addr) {
	p.careOf = careOf
	for i := range p.slots {
		if p.slots[i].active {
			p.sendUpdate(i, pushLifetime, false)
		}
	}
}

// sendUpdate transmits one binding update to slot i and arms its
// retransmission timer. The wire image is built in a pooled buffer and
// signed with the association's preallocated HMAC state: zero
// allocations per send (pinned by TestUpdaterSendAllocs).
func (p *pusher) sendUpdate(i int, lifetime uint16, retransmit bool) {
	s := &p.slots[i]
	u := BindingUpdate{
		Lifetime: lifetime,
		Home:     p.home,
		CareOf:   p.careOf,
		ID:       p.ids.Next(p.host.Sim().Now()),
	}
	buf := netsim.GetBuf()
	b := p.auth.AppendAuth(u.AppendMarshal(buf.B))
	_ = p.sock.SendToFrom(p.srcAddr(), s.peer, udp.PortBindingUpdate, b)
	netsim.PutBuf(buf)
	s.awaiting = true
	s.awaitingID = u.ID
	if retransmit {
		p.stats.Retransmits++
	} else {
		s.tries = 0
	}
	p.stats.UpdatesSent++
	p.armRetry(i)
}

// armRetry schedules slot i's retransmission. Timer handles are built
// once per slot, on first use, and re-armed via Reset — the repo's timer
// idiom — with the retry closure binding the slot index.
func (p *pusher) armRetry(i int) {
	s := &p.slots[i]
	if s.timer == nil {
		s.timer = vtime.NewTimer(func() { p.onRetry(i) })
	}
	s.timer.Reset(p.host.Sched(), pushRetry)
}

// onRetry fires when slot i's update has gone unacked for one retry
// interval: retransmit, or — once the budget is spent — abandon. An
// abandoned correspondent is left to the fallback path: its cached
// binding (if any) expires on its TTL and traffic degrades to In-IE
// triangle routing, so no conversation is ever lost to a missing ack.
func (p *pusher) onRetry(i int) {
	s := &p.slots[i]
	if !s.awaiting || !s.active {
		return
	}
	s.tries++
	if s.tries >= pushMaxRetries {
		s.awaiting = false
		p.stats.Abandons++
		if tr := p.host.Sim().Trace; tr.On() {
			tr.Record(netsim.Event{
				Kind: netsim.EventNote, Time: p.host.Sim().Now(), Where: p.host.Name(),
				Detail: "binding update abandoned: retries exhausted",
			})
		}
		return
	}
	p.sendUpdate(i, pushLifetime, true)
}

// handleAck processes one acknowledgement for this pusher's home. The
// caller has already parsed the datagram; payload is the full wire
// image for MAC verification.
func (p *pusher) handleAck(src ipv4.Addr, a BindingAck, hasAuth bool, payload []byte) {
	if !p.auth.Accepts(payload, hasAuth) {
		// Under an association every ack must authenticate: a forged
		// nack must not stop retransmission toward the real receiver.
		p.host.Sim().Metrics.Drop(metrics.DropAuthBadMAC)
		return
	}
	for i := range p.slots {
		s := &p.slots[i]
		if !s.active || s.peer != src || !s.awaiting || s.awaitingID != a.ID {
			continue
		}
		s.awaiting = false
		s.timer.Stop()
		if a.Code == AckAccepted {
			p.stats.Acks++
		} else {
			// The receiver refused (no association, auth failure,
			// replay verdict): pushing again would only repeat the
			// refusal, so drop the peer from the push set. Its traffic
			// keeps flowing In-IE — the hard fallback.
			p.stats.Nacks++
			s.active = false
			if tr := p.host.Sim().Trace; tr.On() {
				tr.Record(netsim.Event{
					Kind: netsim.EventNote, Time: p.host.Sim().Now(), Where: p.host.Name(),
					Detail: fmt.Sprintf("binding update refused by %s: code %d", src, a.Code),
				})
			}
		}
		return
	}
}

// quiesce stops every slot timer and clears in-flight state (migration
// prep: a fresh push after arrival supersedes anything in flight).
func (p *pusher) quiesce() {
	for i := range p.slots {
		p.slots[i].timer.Stop()
		p.slots[i].awaiting = false
		p.slots[i].tries = 0
	}
}

// activePeers counts currently tracked correspondents.
func (p *pusher) activePeers() int {
	n := 0
	for i := range p.slots {
		if p.slots[i].active {
			n++
		}
	}
	return n
}
