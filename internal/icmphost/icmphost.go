// Package icmphost wires the ICMP codec into a stack.Host: an echo
// responder (every well-behaved Internet host answers pings — the
// experiments' standard workload), an echo client, and callback dispatch
// for mobility binding notices and error messages.
package icmphost

import (
	"mob4x4/internal/icmp"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/netsim"
	"mob4x4/internal/stack"
)

// ICMP is a host's ICMP endpoint.
type ICMP struct {
	host *stack.Host

	// EchoResponder controls whether echo requests are answered
	// (default true).
	EchoResponder bool

	// OnEchoReply fires for every echo reply received.
	OnEchoReply func(src ipv4.Addr, msg icmp.Message)
	// OnEchoRequest fires for every echo request received (after the
	// responder, if enabled, has replied).
	OnEchoRequest func(src ipv4.Addr, msg icmp.Message)
	// OnBinding fires for mobility binding notices (Section 3.2): the
	// home agent telling us a host we talk to is mobile, and where.
	OnBinding func(src ipv4.Addr, msg icmp.Message)
	// OnError fires for destination-unreachable and time-exceeded.
	OnError func(src ipv4.Addr, msg icmp.Message)

	// EchoRequests/EchoReplies count traffic.
	EchoRequests, EchoReplies uint64
}

// Install registers the ICMP protocol handler on h and returns the
// endpoint. Call at most once per host; components that need ICMP events
// share the returned value.
func Install(h *stack.Host) *ICMP {
	ic := &ICMP{host: h, EchoResponder: true}
	h.Handle(ipv4.ProtoICMP, ic.receive)
	return ic
}

func (ic *ICMP) receive(ifc *stack.Iface, pkt ipv4.Packet) {
	msg, err := icmp.Unmarshal(pkt.Payload)
	if err != nil {
		return
	}
	switch msg.Type {
	case icmp.TypeEchoRequest:
		ic.EchoRequests++
		if ic.EchoResponder {
			reply := icmp.EchoReplyTo(msg)
			src := pkt.Dst // reply from the address we were pinged at
			if src.IsBroadcast() || src.IsMulticast() {
				src = ipv4.Zero
			}
			_ = Send(ic.host, src, pkt.Src, &reply)
		}
		if ic.OnEchoRequest != nil {
			ic.OnEchoRequest(pkt.Src, msg)
		}
	case icmp.TypeEchoReply:
		ic.EchoReplies++
		if ic.OnEchoReply != nil {
			ic.OnEchoReply(pkt.Src, msg)
		}
	case icmp.TypeMobilityBinding:
		if ic.OnBinding != nil {
			ic.OnBinding(pkt.Src, msg)
		}
	case icmp.TypeDestUnreachable, icmp.TypeTimeExceeded:
		if ic.OnError != nil {
			ic.OnError(pkt.Src, msg)
		}
	}
}

// Ping sends one echo request from src (zero = routing chooses) to dst.
func (ic *ICMP) Ping(src, dst ipv4.Addr, id, seq uint16, payload []byte) error {
	msg := icmp.EchoRequest(id, seq, payload)
	return Send(ic.host, src, dst, &msg)
}

// Send marshals msg into a pooled buffer and sends it from src (zero =
// routing chooses) to dst. SendIP copies the payload before it returns,
// so the buffer is recycled at once.
func Send(h *stack.Host, src, dst ipv4.Addr, msg *icmp.Message) error {
	buf := netsim.GetBuf()
	buf.B = msg.AppendMarshal(buf.B)
	err := h.SendIP(ipv4.Packet{
		Header:  ipv4.Header{Protocol: ipv4.ProtoICMP, Src: src, Dst: dst},
		Payload: buf.B,
	})
	netsim.PutBuf(buf)
	return err
}
