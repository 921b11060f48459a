package ipv4

import (
	"fmt"
)

// ErrFragNeeded is returned by Fragment when the packet has DF set but does
// not fit the MTU; routers convert this into an ICMP "fragmentation needed"
// error in a full stack.
var ErrFragNeeded = fmt.Errorf("ipv4: fragmentation needed but DF set")

// Fragment splits p into fragments that each fit within mtu bytes
// (including the IPv4 header). Section 3.3 of the paper observes that
// encapsulation overhead pushing a packet past the MTU "doubles the packet
// count" — this is the code path that doubling comes from.
//
// If the packet already fits, the returned slice contains p itself.
// Options are carried only in the first fragment (the simulation does not
// model copied options).
func Fragment(p Packet, mtu int) ([]Packet, error) {
	if mtu < HeaderLen+8 {
		return nil, fmt.Errorf("ipv4: mtu %d too small", mtu)
	}
	if p.TotalLen() <= mtu {
		return []Packet{p}, nil
	}
	if p.DontFrag {
		return nil, ErrFragNeeded
	}
	if p.MoreFrags || p.FragOffset != 0 {
		// Re-fragmenting a fragment is legal in IPv4; keep the original
		// offsets as the base.
	}
	var frags []Packet
	base := int(p.FragOffset) * 8
	payload := p.Payload
	hlen := HeaderLen // subsequent fragments never carry our options
	firstHlen := p.Header.Len()

	// Payload bytes available in the first fragment, rounded down to a
	// multiple of 8 (fragment offsets are in 8-byte units).
	chunk0 := (mtu - firstHlen) &^ 7
	chunkN := (mtu - hlen) &^ 7
	if chunk0 <= 0 || chunkN <= 0 {
		return nil, fmt.Errorf("ipv4: mtu %d leaves no room for payload", mtu)
	}

	off := 0
	for off < len(payload) {
		f := Packet{Header: p.Header}
		chunk := chunkN
		if off == 0 {
			chunk = chunk0
		} else {
			f.Options = nil
		}
		end := off + chunk
		last := false
		if end >= len(payload) {
			end = len(payload)
			last = true
		}
		f.Payload = payload[off:end]
		f.FragOffset = uint16((base + off) / 8)
		f.MoreFrags = !last || p.MoreFrags
		frags = append(frags, f)
		off = end
	}
	return frags, nil
}

// fragKey identifies a reassembly context per RFC 791: the tuple
// (src, dst, protocol, identification).
type fragKey struct {
	src, dst Addr
	proto    uint8
	id       uint16
}

type fragSpan struct {
	first, last int // byte range, inclusive start, exclusive end
}

// fragContext assembles fragments in place: each fragment's bytes are
// copied at their final offset into buf the moment they arrive (they may
// alias a pooled frame buffer the link layer recycles when delivery
// returns), and covered tracks the merged byte ranges received so far.
// Completion is exactly "covered is the single span [0, total)", and the
// assembled payload is buf itself — no per-fragment retention copies and
// no second assembly pass.
type fragContext struct {
	buf      []byte     // payload being assembled, len == highest byte seen
	covered  []fragSpan // sorted, disjoint, non-adjacent received ranges
	total    int        // total payload length, -1 until final fragment seen
	header   Header     // header of the zero-offset fragment
	sawFirst bool
}

// Reassembler reconstructs original packets from fragments. It is driven by
// explicit Expire calls (the owning stack wires a vtime timer) rather than
// wall-clock time, keeping the package free of scheduler dependencies.
type Reassembler struct {
	contexts map[fragKey]*fragContext
	// Timeout bookkeeping is the owner's job; Reassembler only counts.
	Drops uint64 // contexts discarded by Expire or error
}

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{contexts: make(map[fragKey]*fragContext)}
}

// Pending reports the number of in-progress reassembly contexts.
func (r *Reassembler) Pending() int { return len(r.contexts) }

// Add offers a fragment (or whole packet) to the reassembler. If the packet
// is unfragmented it is returned immediately, without touching r (which may
// then be nil). When the final piece of a fragmented packet arrives, the
// fully reassembled packet is returned with done=true; otherwise done is
// false.
func (r *Reassembler) Add(p Packet) (out Packet, done bool, err error) {
	if !p.MoreFrags && p.FragOffset == 0 {
		return p, true, nil
	}
	key := fragKey{p.Src, p.Dst, p.Protocol, p.ID}
	ctx := r.contexts[key]
	if ctx == nil {
		ctx = &fragContext{total: -1}
		r.contexts[key] = ctx
	}
	off := int(p.FragOffset) * 8
	end := off + len(p.Payload)
	if !p.MoreFrags {
		if ctx.total >= 0 && ctx.total != end {
			delete(r.contexts, key)
			r.Drops++
			return Packet{}, false, fmt.Errorf("ipv4: conflicting reassembly lengths (%d vs %d)", ctx.total, end)
		}
		ctx.total = end
	}
	if off == 0 && !ctx.sawFirst {
		ctx.header = p.Header
		ctx.sawFirst = true
	}
	if ctx.add(off, p.Payload) == 0 {
		return Packet{}, false, nil // duplicate (or fully overlapped): ignore
	}
	if ctx.total < 0 || !ctx.sawFirst ||
		len(ctx.covered) != 1 || ctx.covered[0] != (fragSpan{0, ctx.total}) {
		return Packet{}, false, nil
	}
	delete(r.contexts, key)
	out = Packet{Header: ctx.header, Payload: ctx.buf[:ctx.total]}
	out.MoreFrags = false
	out.FragOffset = 0
	return out, true, nil
}

// add copies the not-yet-covered bytes of a fragment spanning [off, end)
// into the assembly buffer (earlier arrivals win on overlap) and merges
// the span into covered. It returns the number of newly covered bytes.
func (ctx *fragContext) add(off int, payload []byte) int {
	end := off + len(payload)
	if end > len(ctx.buf) {
		if end > cap(ctx.buf) {
			grown := make([]byte, end, max(end, 2*cap(ctx.buf)))
			copy(grown, ctx.buf)
			ctx.buf = grown
		} else {
			ctx.buf = ctx.buf[:end]
		}
	}
	newBytes := 0
	cur := off
	for _, c := range ctx.covered {
		if c.last <= cur {
			continue
		}
		if c.first >= end {
			break
		}
		if c.first > cur {
			seg := min(c.first, end)
			newBytes += copy(ctx.buf[cur:seg], payload[cur-off:seg-off])
		}
		cur = max(cur, c.last)
		if cur >= end {
			break
		}
	}
	if cur < end {
		newBytes += copy(ctx.buf[cur:end], payload[cur-off:end-off])
	}
	if newBytes == 0 {
		return 0
	}
	// Merge [off, end) into the sorted disjoint span list: spans [i, j)
	// overlap or touch it and collapse into one.
	span := fragSpan{off, end}
	i := 0
	for i < len(ctx.covered) && ctx.covered[i].last < span.first {
		i++
	}
	j := i
	for j < len(ctx.covered) && ctx.covered[j].first <= span.last {
		span.first = min(span.first, ctx.covered[j].first)
		span.last = max(span.last, ctx.covered[j].last)
		j++
	}
	if i == j {
		ctx.covered = append(ctx.covered, fragSpan{})
		copy(ctx.covered[i+1:], ctx.covered[i:])
		ctx.covered[i] = span
	} else {
		ctx.covered[i] = span
		ctx.covered = append(ctx.covered[:i+1], ctx.covered[j:]...)
	}
	return newBytes
}

// Expire discards every in-progress context; the owning stack calls it on a
// reassembly timeout tick. It returns the number of contexts dropped.
func (r *Reassembler) Expire() int {
	n := len(r.contexts)
	if n > 0 {
		r.contexts = make(map[fragKey]*fragContext)
		r.Drops += uint64(n)
	}
	return n
}
