package pcap

import (
	"mob4x4/internal/netsim"
	"mob4x4/internal/vtime"
)

// Attach installs a sink on sim's tracer that writes every frame event
// into w as a synthesized Ethernet packet (14-byte header built from the
// frame's MACs and EtherType, followed by the IP/ARP payload), stamped
// with the event's virtual time, and returns stop, which removes it. The
// payload is copied into the writer before the sink returns, so nothing
// aliases the pooled frame afterwards. The sink forwards every event to
// the hook installed before it, and Capture windows leave frame events
// out of their logs, so a window opened and closed while a capture runs
// sees what it would see without one.
//
// The vantage point is the sending NIC, after the down and MTU checks and
// before the loss draw and fault-hook corruption: the capture records
// what was transmitted, like tcpdump on the sender, so a frame the wire
// later loses still appears exactly once.
//
// Attach belongs to the single-threaded build phase. Multiple Sims (the
// region shards of a sharded run) may share one Writer only if their
// events never interleave; per-region Writers are the shard-safe shape.
func Attach(sim *netsim.Sim, w *Writer) (stop func()) {
	return sim.Trace.Attach(func(e netsim.Event) {
		if e.Kind == netsim.EventFrame {
			writeFrame(w, e.Time, e.Frame)
		}
	})
}

// writeFrame appends one frame to w with a synthesized Ethernet header.
func writeFrame(w *Writer, at vtime.Time, f *netsim.Frame) {
	var hdr [netsim.FrameHeaderLen]byte
	putMAC(hdr[0:6], f.Dst)
	putMAC(hdr[6:12], f.Src)
	hdr[12] = byte(f.Type >> 8)
	hdr[13] = byte(f.Type)
	w.WritePacket(int64(at), hdr[:], f.Payload)
}

// putMAC writes the low 48 bits of m big-endian — the same bytes
// netsim.MAC.String renders.
func putMAC(b []byte, m netsim.MAC) {
	b[0] = byte(m >> 40)
	b[1] = byte(m >> 32)
	b[2] = byte(m >> 24)
	b[3] = byte(m >> 16)
	b[4] = byte(m >> 8)
	b[5] = byte(m)
}
