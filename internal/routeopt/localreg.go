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

// Regional registration timing.
const (
	// regionalLifetime is the regional registration lifetime requested
	// (seconds).
	regionalLifetime = 60
	// regionalRetry is the retransmission interval; regionalMaxRetries
	// bounds attempts per exchange.
	regionalRetry      = vtime.Duration(500e6) // 500ms
	regionalMaxRetries = 4
)

// LocalRegistrarConfig configures the mobile node's regional
// registration client.
type LocalRegistrarConfig struct {
	// Regional is the gateway agent's address.
	Regional ipv4.Addr
	// Auth, when non-nil, signs regional registrations; the gateway
	// must hold the same association (RegionalAgent.Keys).
	Auth *mobileip.Authenticator
}

// LocalRegistrarStats counts regional registration activity.
type LocalRegistrarStats struct {
	Registrations uint64 // accepted exchanges
	Fails         uint64 // denied or retries exhausted
	Retransmits   uint64
}

// LocalRegistrar is the hierarchical tier's mobile-node side: after an
// intra-metro handoff it registers the new cell care-of address with
// the regional gateway — a LAN-scale exchange — instead of re-running
// the home registration across the uplink. It owns its own socket and
// retry timer so it composes with the node's home registration state
// machine instead of entangling it.
type LocalRegistrar struct {
	mn   *mobileip.MobileNode
	cfg  LocalRegistrarConfig
	sock *stack.UDPSocket

	timer    *vtime.Timer
	awaiting bool
	tries    int
	ids      mobileip.IDClock
	careOf   ipv4.Addr // care-of address the in-flight exchange registers

	// OnAccepted, when non-nil, fires on every accepted regional
	// registration with the care-of address the gateway now holds.
	OnAccepted func(careOf ipv4.Addr)

	Stats LocalRegistrarStats
}

// NewLocalRegistrar installs the regional registration client on mn's
// host.
func NewLocalRegistrar(mn *mobileip.MobileNode, cfg LocalRegistrarConfig) (*LocalRegistrar, error) {
	lr := &LocalRegistrar{mn: mn, cfg: cfg}
	mn.Host().Sim().Metrics.AddSource(lr)
	sock, err := mn.Host().OpenUDP(ipv4.Zero, 0, lr.handleReply)
	if err != nil {
		return nil, fmt.Errorf("routeopt: local registrar: %w", err)
	}
	lr.sock = sock
	return lr, nil
}

// Report implements metrics.Source.
func (lr *LocalRegistrar) Report(a *metrics.Adder) {
	a.Counter("ro/local_registrations", lr.Stats.Registrations)
	a.Counter("ro/local_reg_fails", lr.Stats.Fails)
}

// Register starts a regional registration exchange for the node's
// current care-of address. Call it after every intra-metro handoff
// (MoveToRegional); a new call supersedes any exchange in flight.
func (lr *LocalRegistrar) Register() {
	lr.careOf = lr.mn.CareOf()
	lr.tries = 0
	lr.awaiting = true
	lr.send()
	lr.arm()
}

// Deregister clears the regional binding (the node left the metro or
// went home).
func (lr *LocalRegistrar) Deregister() {
	lr.timer.Stop()
	lr.awaiting = false
	lr.careOf = lr.mn.Home()
	lr.sendLifetime(0)
}

func (lr *LocalRegistrar) send() { lr.sendLifetime(regionalLifetime) }

// sendLifetime transmits one regional registration request. Pooled
// buffer, preallocated HMAC state: zero allocations per send.
func (lr *LocalRegistrar) sendLifetime(lifetime uint16) {
	req := mobileip.Request{
		Lifetime:  lifetime,
		Home:      lr.mn.Home(),
		HomeAgent: lr.cfg.Regional,
		CareOf:    lr.careOf,
		ID:        lr.ids.Next(lr.mn.Host().Sim().Now()),
	}
	buf := netsim.GetBuf()
	b := lr.cfg.Auth.AppendAuth(req.AppendMarshal(buf.B))
	_ = lr.sock.SendToFrom(lr.mn.CareOf(), lr.cfg.Regional, udp.PortRegistration, b)
	netsim.PutBuf(buf)
}

func (lr *LocalRegistrar) arm() {
	if lr.timer == nil {
		lr.timer = vtime.NewTimer(lr.onRetry)
	}
	lr.timer.Reset(lr.mn.Host().Sched(), regionalRetry)
}

func (lr *LocalRegistrar) onRetry() {
	if !lr.awaiting {
		return
	}
	lr.tries++
	if lr.tries >= regionalMaxRetries {
		lr.awaiting = false
		lr.Stats.Fails++
		if tr := lr.mn.Host().Sim().Trace; tr.On() {
			tr.Record(netsim.Event{
				Kind: netsim.EventNote, Time: lr.mn.Host().Sim().Now(), Where: lr.mn.Host().Name(),
				Detail: "regional registration abandoned: retries exhausted",
			})
		}
		return
	}
	lr.Stats.Retransmits++
	lr.send()
	lr.arm()
}

// handleReply serves the registrar's ephemeral UDP port.
func (lr *LocalRegistrar) handleReply(src ipv4.Addr, srcPort uint16, dst ipv4.Addr, payload []byte) {
	rep, _, hasAuth, ok := mobileip.ParseReply(payload)
	if !ok || rep.Home != lr.mn.Home() || rep.ID != lr.ids.Last() {
		return
	}
	if !lr.cfg.Auth.Accepts(payload, hasAuth) {
		lr.mn.Host().Sim().Metrics.Drop(metrics.DropAuthBadMAC)
		return
	}
	if !lr.awaiting {
		return
	}
	lr.awaiting = false
	lr.timer.Stop()
	if rep.Code != mobileip.CodeAccepted {
		lr.Stats.Fails++
		return
	}
	lr.Stats.Registrations++
	if lr.OnAccepted != nil {
		lr.OnAccepted(lr.careOf)
	}
}

// Quiesce stops the retry timer and clears in-flight state (migration
// prep; the Register after arrival supersedes it).
func (lr *LocalRegistrar) Quiesce() {
	lr.timer.Stop()
	lr.awaiting = false
}

// Close quiesces the registrar and releases its socket (fleet cleanup).
func (lr *LocalRegistrar) Close() {
	lr.Quiesce()
	lr.sock.Close()
}
