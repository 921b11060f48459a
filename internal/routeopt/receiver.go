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
}

// ReceiverStats counts receiver activity.
type ReceiverStats struct {
	Updates     uint64 // well-formed updates arrived
	Accepted    uint64 // bindings learned (or revoked)
	Revocations uint64
	Refused     uint64 // nacked: auth, replay, or no association
	Malformed   uint64
}

// Receiver is the correspondent-side half of pushed binding updates: a
// UDP endpoint on port 435 that verifies updates, feeds them into the
// correspondent's binding cache (Correspondent.LearnBinding, whose TTL
// expiry is the In-IE fallback), and acks or nacks each one. The
// correspondent must be MobileAware — a receiver without a cache to
// feed would be pointless.
type Receiver struct {
	c    *mobileip.Correspondent
	sock *stack.UDPSocket
	keys mobileip.Keys

	Stats ReceiverStats
}

// NewReceiver installs the binding-update endpoint on c's host.
func NewReceiver(c *mobileip.Correspondent, cfg ReceiverConfig) (*Receiver, error) {
	r := &Receiver{
		c:    c,
		keys: mobileip.NewKeys(c.Host().Sim().Metrics, cfg.RequireAuth),
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

// Keys returns the receiver's security associations: updates for a
// provisioned home must be signed under it, and acks carry one back.
func (r *Receiver) Keys() *mobileip.Keys { return &r.keys }

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
	// The home agent's rule and drop causes: MAC first, then the
	// window. An unknown home alone is refused without a drop.
	v := r.keys.Check(u.Home, payload, hasAuth, u.ID)
	ack := BindingAck{Code: v.Code(), Lifetime: u.Lifetime, Home: u.Home, ID: u.ID}
	if v == mobileip.Unknown {
		ack.Code = AckDeniedUnknownHome
	}
	if ack.Code == AckAccepted {
		r.accept(&u, ack.Lifetime)
	} else {
		r.Stats.Refused++
	}
	// Ack into a pooled buffer; SendToFrom copies before returning.
	// Acks under an association are signed — a forged nack must not be
	// able to stop the updater's retransmissions.
	buf := netsim.GetBuf()
	b := r.keys.Signer(u.Home).AppendAuth(ack.AppendMarshal(buf.B))
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
