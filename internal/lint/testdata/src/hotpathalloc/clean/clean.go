// Package hotpathallocclean is the zero-allocation shape of the same
// datapath: append-style codecs into caller-provided buffers. The
// hotpathalloc analyzer must stay silent.
package hotpathallocclean

import (
	"mob4x4/internal/encap"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/mobileip"
)

// Transmit reuses buf for both the tunnel wrap and the wire bytes.
func Transmit(c encap.Codec, pkt ipv4.Packet, src, dst ipv4.Addr, buf []byte) ([]byte, error) {
	outer, err := c.AppendEncap(pkt, src, dst, ipv4.Zero, buf[:0])
	if err != nil {
		return nil, err
	}
	return outer.AppendMarshal(buf[len(buf):])
}

// Register marshals the registration request into a caller-provided
// (pooled) buffer — the handoff fast path's shape.
func Register(req *mobileip.Request, buf []byte) []byte {
	return req.AppendMarshal(buf[:0])
}
