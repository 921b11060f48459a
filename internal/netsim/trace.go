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
	EventFrame                            // a frame entered a segment (Event.Frame)
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
	case EventFrame:
		return "frame"
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
	// Frame is set on EventFrame only, and is valid only while the hook
	// runs: its payload is pooled storage the link layer recycles after
	// delivery, so a sink copies what it keeps before returning.
	Frame *Frame
}

func (e Event) String() string {
	if e.PktID != 0 {
		return fmt.Sprintf("%10v %-12s %-14s pkt=%d %s", e.Time, e.Kind, e.Where, e.PktID, e.Detail)
	}
	return fmt.Sprintf("%10v %-12s %-14s %s", e.Time, e.Kind, e.Where, e.Detail)
}

// Tracer hands per-packet events to an optional hook, the simulation's one
// observation plane. With no hook installed (the default) nothing is
// recorded: record sites gate on On, so they neither build an Event nor
// format its Detail. Counts live in the metrics registry, not here. Sinks
// nest on the hook (see Attach): a Capture window keeps a packet's path
// for the few readers that need one, and package pcap writes the frame
// events to a capture file.
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

// Attach installs sink: every event recorded until stop is called is
// handed to sink and then to the hook installed before it, so sinks nest.
// stop restores that hook; stop nested sinks in the reverse order of
// their Attach.
func (t *Tracer) Attach(sink func(Event)) (stop func()) {
	prev := t.hook
	t.hook = func(e Event) {
		sink(e)
		if prev != nil {
			prev(e)
		}
	}
	return func() { t.hook = prev }
}

// Capture opens a capture window: a sink that appends every event to the
// returned log until stop is called, except the frame events, whose
// frames do not outlive the hook call.
func (t *Tracer) Capture() (log *Log, stop func()) {
	l := new(Log)
	*l = make(Log, 0, captureCap)
	return l, t.Attach(func(e Event) {
		if e.Kind != EventFrame {
			*l = append(*l, e)
		}
	})
}

// Discard removes any installed hook.
func (t *Tracer) Discard() { t.hook = nil }

// Log is the event sequence one Capture window recorded, in order.
type Log []Event

// Send returns the trace id of the first packet host originated after
// packet after (0: anywhere in the log), or 0 if there is none.
func (l Log) Send(host string, after uint64) uint64 {
	for _, e := range l {
		if e.Kind == EventSend && e.Where == host && e.PktID > after {
			return e.PktID
		}
	}
	return 0
}

// Transit returns the time from a packet's first send to its last
// delivery and the node that delivery reached; zero and "" if the packet
// was never delivered.
func (l Log) Transit(pktID uint64) (d vtime.Duration, to string) {
	sent := vtime.Time(-1)
	for _, e := range l {
		switch {
		case e.PktID != pktID:
		case e.Kind == EventSend && sent < 0:
			sent = e.Time
		case e.Kind == EventDeliver && sent >= 0:
			d, to = e.Time.Sub(sent), e.Where
		}
	}
	return d, to
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
