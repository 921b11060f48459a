package routeopt

import (
	"fmt"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/mobileip"
	"mob4x4/internal/stack"
)

// HAUpdater is the configurable home-agent-push alternative to Updater:
// the agent learns each binding's active correspondents from the
// packets it tunnels (OnForward) and pushes the new care-of address to
// them when the binding moves (OnBind). It only sees In-IE traffic —
// correspondents already routing In-DE bypass the agent and stay
// invisible to it — which is why the MN-push updater is the fleet
// default and this one is the configuration knob.
type HAUpdater struct {
	ha   *mobileip.HomeAgent
	sock *stack.UDPSocket

	// pushers holds one engine per provisioned home. Point lookups
	// only; never iterated — pusherList carries the deterministic
	// (provisioning-order) traversal for Close.
	pushers    map[ipv4.Addr]*pusher
	pusherList []*pusher

	Stats PushStats
}

// NewHAUpdater installs the updater on ha's host, chaining onto the
// agent's OnForward and OnBind hooks. Its timing is the MN-push
// updater's, applied per provisioned home.
func NewHAUpdater(ha *mobileip.HomeAgent) (*HAUpdater, error) {
	h := &HAUpdater{ha: ha, pushers: make(map[ipv4.Addr]*pusher)}
	ha.Host().Sim().Metrics.AddSource(&h.Stats)
	sock, err := ha.Host().OpenUDP(ipv4.Zero, 0, h.handleAck)
	if err != nil {
		return nil, fmt.Errorf("routeopt: ha updater: %w", err)
	}
	h.sock = sock
	prevForward := ha.OnForward
	ha.OnForward = func(correspondent, home ipv4.Addr) {
		if p := h.pushers[home]; p != nil {
			p.notePeer(correspondent)
		}
		if prevForward != nil {
			prevForward(correspondent, home)
		}
	}
	prevBind := ha.OnBind
	ha.OnBind = func(home, careOf ipv4.Addr) {
		h.onBind(home, careOf)
		if prevBind != nil {
			prevBind(home, careOf)
		}
	}
	return h, nil
}

// ProvisionHome enables pushing for one home address. auth (usually the
// same association the agent verifies that home's registrations with)
// signs its updates; nil pushes unauthenticated.
func (h *HAUpdater) ProvisionHome(home ipv4.Addr, auth *mobileip.Authenticator) {
	p := newPusher(h.ha.Host(), h.sock, home, auth, &h.Stats, h.ha.Addr)
	h.pushers[home] = p
	h.pusherList = append(h.pusherList, p)
}

// onBind fires on every accepted registration: push only when the
// care-of address actually changed (renewals at the same address are
// the common case and need no update).
func (h *HAUpdater) onBind(home, careOf ipv4.Addr) {
	p := h.pushers[home]
	if p == nil || p.careOf == careOf {
		return
	}
	p.push(careOf)
}

// handleAck serves the updater's ephemeral UDP port, routing each ack
// to its home's engine.
func (h *HAUpdater) handleAck(src ipv4.Addr, srcPort uint16, dst ipv4.Addr, payload []byte) {
	a, _, hasAuth, ok := ParseAck(payload)
	if !ok {
		return
	}
	if p := h.pushers[a.Home]; p != nil {
		p.handleAck(src, a, hasAuth, payload)
	}
}

// ActivePeers returns the number of correspondents tracked for home.
func (h *HAUpdater) ActivePeers(home ipv4.Addr) int {
	if p := h.pushers[home]; p != nil {
		return p.activePeers()
	}
	return 0
}

// Close quiesces every per-home engine and releases the socket (fleet
// cleanup). The list, not the map, carries the traversal: provisioning
// order is deterministic, map order is not.
func (h *HAUpdater) Close() {
	for _, p := range h.pusherList {
		p.quiesce()
	}
	h.sock.Close()
}
