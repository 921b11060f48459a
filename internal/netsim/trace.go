package netsim

import (
	"fmt"
	"strings"

	"mob4x4/internal/vtime"
)

// EventKind classifies tracer events.
type EventKind int

// Tracer event kinds. The per-hop events (EventForward, EventDeliver,
// EventDropFilter, ...) let a capture reader count a packet's hops, see
// which router dropped it, and render paper-figure paths.
const (
	EventSend        EventKind = iota + 1 // host originated a packet
	EventForward                          // router forwarded a packet
	EventDeliver                          // packet delivered to final destination stack
	EventDropFilter                       // filter policy discarded the packet
	EventDropTTL                          // TTL expired
	EventDropNoRoute                      // no route to destination
	EventDropMTU                          // exceeded segment MTU
	EventEncap                            // packet entered a tunnel
	EventDecap                            // packet exited a tunnel
	EventMove                             // mobile host changed attachment
	EventRegister                         // mobile host (de)registered with an agent
	EventNote                             // free-form annotation
	EventDropNoDest                       // no attached receiver on the segment
	EventDropDown                         // segment administratively down (fault window)
	EventDropFault                        // fault-injection hook discarded the frame
)

func (k EventKind) String() string {
	switch k {
	case EventSend:
		return "send"
	case EventForward:
		return "forward"
	case EventDeliver:
		return "deliver"
	case EventDropFilter:
		return "drop-filter"
	case EventDropTTL:
		return "drop-ttl"
	case EventDropNoRoute:
		return "drop-noroute"
	case EventDropMTU:
		return "drop-mtu"
	case EventEncap:
		return "encap"
	case EventDecap:
		return "decap"
	case EventMove:
		return "move"
	case EventRegister:
		return "register"
	case EventNote:
		return "note"
	case EventDropNoDest:
		return "drop-nodest"
	case EventDropDown:
		return "drop-down"
	case EventDropFault:
		return "drop-fault"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one tracer record.
type Event struct {
	Kind   EventKind
	Time   vtime.Time
	Where  string // node or segment name
	PktID  uint64 // simulation-wide packet trace id (0 if not applicable)
	Detail string
}

func (e Event) String() string {
	if e.PktID != 0 {
		return fmt.Sprintf("%10v %-12s %-14s pkt=%d %s", e.Time, e.Kind, e.Where, e.PktID, e.Detail)
	}
	return fmt.Sprintf("%10v %-12s %-14s %s", e.Time, e.Kind, e.Where, e.Detail)
}

// Tracer hands per-packet events to an optional hook. With no hook
// installed (the default) nothing is recorded: record sites gate on On, so
// they neither build an Event nor format its Detail. Counts live in the
// metrics registry, not here; the tracer exists for the few readers that
// need a packet's path, which open a Capture window around it.
type Tracer struct {
	hook    func(Event)
	nextPkt uint64
}

// NewTracer returns a tracer with no hook installed.
func NewTracer() *Tracer { return &Tracer{} }

// NextPacketID allocates a trace id for a new packet entering the network.
func (t *Tracer) NextPacketID() uint64 {
	t.nextPkt++
	return t.nextPkt
}

// On reports whether a hook is installed. Record sites call Record only
// when it is true.
func (t *Tracer) On() bool { return t.hook != nil }

// Record hands e to the installed hook, if any.
func (t *Tracer) Record(e Event) {
	if t.hook != nil {
		t.hook(e)
	}
}

// captureCap presizes a capture's log. One echo exchange records 5 to 50
// events across every PingFrom window `mob4x4 all` opens, so such a
// window allocates its log once.
const captureCap = 64

// Capture opens a capture window: every event recorded until stop is
// called is appended to the returned log and also handed to the hook
// installed before the window, so windows nest. stop restores that hook.
func (t *Tracer) Capture() (log *Log, stop func()) {
	l := make(Log, 0, captureCap)
	log = &l
	prev := t.hook
	t.hook = func(e Event) {
		*log = append(*log, e)
		if prev != nil {
			prev(e)
		}
	}
	return log, func() { t.hook = prev }
}

// Discard removes any installed hook.
func (t *Tracer) Discard() { t.hook = nil }

// Log is the event sequence one Capture window recorded, in order.
type Log []Event

// Packet returns the events for one packet trace id, in order. It counts
// them first so the result is allocated once.
func (l Log) Packet(pktID uint64) []Event {
	n := 0
	for _, e := range l {
		if e.PktID == pktID {
			n++
		}
	}
	out := make([]Event, 0, n)
	for _, e := range l {
		if e.PktID == pktID {
			out = append(out, e)
		}
	}
	return out
}

// Hops returns the number of forwarding hops (EventForward) for a packet.
func (l Log) Hops(pktID uint64) int {
	n := 0
	for _, e := range l {
		if e.PktID == pktID && e.Kind == EventForward {
			n++
		}
	}
	return n
}

// Path renders a packet's journey as "A -> B -> C" using the Where fields
// of its send/forward/deliver events.
func (l Log) Path(pktID uint64) string {
	var parts []string
	for _, e := range l {
		if e.PktID != pktID {
			continue
		}
		switch e.Kind {
		case EventSend, EventForward, EventDeliver, EventEncap, EventDecap:
			label := e.Where
			if e.Kind == EventEncap {
				label += "[encap]"
			}
			if e.Kind == EventDecap {
				label += "[decap]"
			}
			if len(parts) == 0 || parts[len(parts)-1] != label {
				parts = append(parts, label)
			}
		case EventDropFilter, EventDropTTL, EventDropNoRoute, EventDropMTU,
			EventDropNoDest, EventDropDown, EventDropFault:
			parts = append(parts, fmt.Sprintf("X(%s@%s)", e.Kind, e.Where))
		}
	}
	return strings.Join(parts, " -> ")
}
