// Package hotpathallocbad calls every allocating codec form the
// hotpathalloc analyzer polices, plus one annotated call that must be
// excused and one non-module call that must be ignored.
package hotpathallocbad

import (
	"encoding/json"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/mobileip"
)

// Transmit allocates three times per packet; all three must be flagged.
func Transmit(pkt ipv4.Packet) ([]byte, error) {
	kept := pkt.Clone()
	if _, err := kept.Marshal(); err != nil {
		return nil, err
	}
	return pkt.Marshal()
}

// Queue retains the packet past the caller's buffer lifetime; the
// directive excuses the copy, so it must not be flagged.
func Queue(q []ipv4.Packet, pkt ipv4.Packet) []ipv4.Packet {
	//mob4x4vet:allow hotpathalloc queued packets outlive the frame buffer
	return append(q, pkt.Clone())
}

// Encode uses a package-level Marshal from outside the module; not a
// method on a module type, so it is out of scope.
func Encode(v any) ([]byte, error) {
	return json.Marshal(v)
}

// Register serializes a registration request the allocating way. The
// registration path runs once per handoff — tens of thousands of times
// in a fleet storm — so this must be flagged too.
func Register(req *mobileip.Request) []byte {
	return req.Marshal()
}
