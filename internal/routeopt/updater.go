package routeopt

import (
	"fmt"

	"mob4x4/internal/core"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/mobileip"
	"mob4x4/internal/stack"
	"mob4x4/internal/udp"
)

// UpdaterConfig configures the MN-push binding updater. Its timing is
// fixed: see pushLifetime and the other push constants.
type UpdaterConfig struct {
	// Auth, when non-nil, signs every update with the node's mobility
	// association; receivers provisioned with the same (SPI, key)
	// verify and ack under it.
	Auth *mobileip.Authenticator
}

// Updater is the mobile-node-push side of the route-optimization tier:
// it watches the node's outgoing traffic to learn which correspondents
// are active, and on handoff (PushBinding) tells each one the new
// care-of address directly — no waiting for the home agent's ICMP
// notice on the next triangle-routed packet.
//
// The MN pushes by default (rather than the HA) because the modes the
// paper's smart correspondents actually use — Out-DE/In-DE — bypass the
// home agent entirely: an HA-push tier never sees that traffic and so
// cannot know who to update. HAUpdater exists for the configurations
// where the HA does see the traffic.
type Updater struct {
	mn   *mobileip.MobileNode
	sock *stack.UDPSocket
	p    *pusher

	Stats PushStats
}

// NewUpdater installs the updater on mn's host. It chains onto the
// node's OnOutPacket hook (preserving any existing observer).
func NewUpdater(mn *mobileip.MobileNode, cfg UpdaterConfig) (*Updater, error) {
	u := &Updater{mn: mn}
	sock, err := mn.Host().OpenUDP(ipv4.Zero, 0, u.handleAck)
	if err != nil {
		return nil, fmt.Errorf("routeopt: updater: %w", err)
	}
	u.sock = sock
	u.p = newPusher(mn.Host(), sock, mn.Home(), cfg.Auth, &u.Stats, mn.CareOf)
	mn.Host().Sim().Metrics.AddSource(&u.Stats)
	prev := mn.OnOutPacket
	mn.OnOutPacket = func(mode core.OutMode, pkt ipv4.Packet) {
		u.noteOut(&pkt)
		if prev != nil {
			prev(mode, pkt)
		}
	}
	return u, nil
}

// noteOut tracks the destinations of the node's own traffic. Control
// traffic (registration and binding-update exchanges, anything to the
// home agent) and non-unicast destinations are not correspondents.
func (u *Updater) noteOut(pkt *ipv4.Packet) {
	dst := pkt.Dst
	if dst == u.mn.HomeAgentAddr() || dst.IsMulticast() || dst.IsBroadcast() || dst.IsZero() {
		return
	}
	if port, ok := pkt.TransportDstPort(); ok &&
		(port == udp.PortRegistration || port == udp.PortBindingUpdate) {
		return
	}
	u.p.notePeer(dst)
}

// PushBinding announces the node's current care-of address to every
// tracked correspondent. Call it after each handoff (the fleet's
// movement engine does), once the new attachment is live.
func (u *Updater) PushBinding() {
	u.p.push(u.mn.CareOf())
}

// PushRevocation clears the pushed bindings (the node went home):
// lifetime zero with the home address as care-of.
func (u *Updater) PushRevocation() {
	u.p.careOf = u.mn.Home()
	for i := range u.p.slots {
		if u.p.slots[i].active {
			u.p.sendUpdate(i, 0, false)
		}
	}
}

// handleAck serves the updater's ephemeral UDP port.
func (u *Updater) handleAck(src ipv4.Addr, srcPort uint16, dst ipv4.Addr, payload []byte) {
	a, _, hasAuth, ok := ParseAck(payload)
	if !ok || a.Home != u.mn.Home() {
		return
	}
	u.p.handleAck(src, a, hasAuth, payload)
}

// ActivePeers returns the number of tracked correspondents.
func (u *Updater) ActivePeers() int { return u.p.activePeers() }

// Quiesce stops all retransmission timers and clears in-flight pushes —
// migration prep. The push after arrival (PushBinding) supersedes
// anything that was in flight.
func (u *Updater) Quiesce() { u.p.quiesce() }

// Close quiesces the updater and releases its socket (fleet cleanup).
func (u *Updater) Close() {
	u.p.quiesce()
	u.sock.Close()
}
