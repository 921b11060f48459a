package routeopt

import (
	"fmt"

	"mob4x4/internal/core"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/mobileip"
	"mob4x4/internal/netsim"
	"mob4x4/internal/stack"
	"mob4x4/internal/udp"
)

// ReceiverConfig tunes a correspondent's binding-update endpoint.
type ReceiverConfig struct {
	// RequireAuth refuses every update for a home with no provisioned
	// association (nack code 136). Without it, unprovisioned homes keep
	// the legacy trust-the-sender behavior — same split as the home
	// agent's RequireAuth.
	RequireAuth bool
	// MaxLifetime caps the cache TTL granted to an update (seconds;
	// 0 = accept the sender's). The granted value is echoed in the ack.
	MaxLifetime uint16
}

// ReceiverStats counts receiver activity.
type ReceiverStats struct {
	Updates     uint64 // well-formed updates arrived
	Accepted    uint64 // bindings learned (or revoked)
	Revocations uint64
	Refused     uint64 // nacked: auth, replay, or no association
	Malformed   uint64
}

// recvAssoc is one provisioned mobility association at the receiver:
// the shared-key authenticator plus a sliding identification window,
// per home — the same split as the home agent's authState.
type recvAssoc struct {
	auth   *mobileip.Authenticator
	window mobileip.ReplayWindow
}

// Receiver is the correspondent-side half of pushed binding updates: a
// UDP endpoint on port 435 that verifies updates, feeds them into the
// correspondent's binding cache (Correspondent.LearnBinding, whose TTL
// expiry is the In-IE fallback), and acks or nacks each one. The
// correspondent must be MobileAware — a receiver without a cache to
// feed would be pointless.
type Receiver struct {
	c    *mobileip.Correspondent
	host *stack.Host
	cfg  ReceiverConfig
	sock *stack.UDPSocket

	// assoc maps home addresses to provisioned associations. Point
	// lookups only; never iterated.
	assoc map[ipv4.Addr]*recvAssoc

	Stats ReceiverStats
}

// NewReceiver installs the binding-update endpoint on c's host.
func NewReceiver(c *mobileip.Correspondent, cfg ReceiverConfig) (*Receiver, error) {
	r := &Receiver{
		c: c, host: c.Host(), cfg: cfg,
		assoc: make(map[ipv4.Addr]*recvAssoc),
	}
	c.Host().Sim().Metrics.AddSource(r)
	sock, err := c.Host().OpenUDP(ipv4.Zero, udp.PortBindingUpdate, r.handleUpdate)
	if err != nil {
		return nil, fmt.Errorf("routeopt: receiver: %w", err)
	}
	r.sock = sock
	return r, nil
}

// Report implements metrics.Source.
func (r *Receiver) Report(a *metrics.Adder) {
	a.Counter("ro/recv_updates", r.Stats.Updates)
	a.Counter("ro/recv_accepted", r.Stats.Accepted)
	a.Counter("ro/recv_refused", r.Stats.Refused)
}

// ProvisionKey installs the mobility association for a home address:
// updates for it must from now on carry a valid authenticator under
// (spi, key), and this receiver's acks carry one back.
func (r *Receiver) ProvisionKey(home ipv4.Addr, spi uint32, key []byte) {
	r.assoc[home] = &recvAssoc{auth: mobileip.NewAuthenticator(spi, key)}
}

// Close releases the receiver's socket (fleet cleanup). The
// correspondent's cached bindings stay — their TTLs expire lazily.
func (r *Receiver) Close() { r.sock.Close() }

// handleUpdate serves UDP 435.
func (r *Receiver) handleUpdate(src ipv4.Addr, srcPort uint16, dst ipv4.Addr, payload []byte) {
	u, _, hasAuth, ok := ParseUpdate(payload)
	if !ok {
		r.Stats.Malformed++
		return
	}
	r.Stats.Updates++
	st := r.assoc[u.Home]
	ack := BindingAck{Code: AckAccepted, Lifetime: u.Lifetime, Home: u.Home, ID: u.ID}
	switch {
	case st == nil && r.cfg.RequireAuth:
		ack.Code = AckDeniedUnknownHome
	case st != nil:
		// Authenticated path: MAC first, then the replay window — the
		// same ordering (and drop-cause taxonomy) as the home agent's
		// registration path.
		if !hasAuth || !st.auth.Verify(payload) {
			r.host.Sim().Metrics.Drop(metrics.DropAuthBadMAC)
			ack.Code = AckDeniedAuthFailed
			break
		}
		switch st.window.Check(u.ID) {
		case mobileip.ReplayDuplicate:
			r.host.Sim().Metrics.Drop(metrics.DropAuthReplay)
			ack.Code = AckDeniedReplay
		case mobileip.ReplayStale:
			r.host.Sim().Metrics.Drop(metrics.DropAuthStaleID)
			ack.Code = AckDeniedStaleID
		}
	}
	if ack.Code == AckAccepted {
		if r.cfg.MaxLifetime > 0 && ack.Lifetime > r.cfg.MaxLifetime {
			ack.Lifetime = r.cfg.MaxLifetime
		}
		r.accept(&u, ack.Lifetime)
	} else {
		r.Stats.Refused++
	}
	// Ack into a pooled buffer; SendToFrom copies before returning.
	// Acks under an association are signed — a forged nack must not be
	// able to stop the updater's retransmissions.
	buf := netsim.GetBuf()
	b := ack.AppendMarshal(buf.B)
	if st != nil {
		b = st.auth.AppendAuth(b)
	}
	_ = r.sock.SendToFrom(dst, src, srcPort, b)
	netsim.PutBuf(buf)
}

// accept applies a verified update to the correspondent's cache.
func (r *Receiver) accept(u *BindingUpdate, lifetime uint16) {
	r.Stats.Accepted++
	if u.IsRevocation() {
		r.Stats.Revocations++
		r.c.ForgetBinding(u.Home)
		return
	}
	r.c.LearnBinding(core.Binding{Home: u.Home, CareOf: u.CareOf}, lifetime)
}
