package ipv4

import (
	"fmt"
)

// ErrFragNeeded is returned by AppendFragments when the packet has DF set
// but does not fit the MTU; routers convert this into an ICMP
// "fragmentation needed" error in a full stack.
var ErrFragNeeded = fmt.Errorf("ipv4: fragmentation needed but DF set")

// AppendFragments appends to dst the fragments of p that each fit within
// mtu bytes (including the IPv4 header) and returns the extended slice.
// Section 3.3 of the paper observes that encapsulation overhead pushing a
// packet past the MTU "doubles the packet count" — this is the code path
// that doubling comes from.
//
// If the packet already fits, p itself is appended. The fragments' payloads
// alias p.Payload; nothing is copied, so with a dst of enough capacity
// (a stack array in the sender) fragmentation allocates nothing. Options
// are carried only in the first fragment (the simulation does not model
// copied options). Each fragment carries p's TraceID, so the tracer
// follows a fragmented packet as one packet. Re-fragmenting a fragment is
// legal in IPv4: its offset is the base of the new fragments' offsets. On
// error dst is returned unchanged.
func AppendFragments(dst []Packet, p Packet, mtu int) ([]Packet, error) {
	if mtu < HeaderLen+8 {
		return dst, fmt.Errorf("ipv4: mtu %d too small", mtu)
	}
	if p.TotalLen() <= mtu {
		return append(dst, p), nil
	}
	if p.DontFrag {
		return dst, ErrFragNeeded
	}
	// Payload bytes available per fragment, rounded down to a multiple
	// of 8 (fragment offsets are in 8-byte units); only the first carries
	// options.
	chunk0 := (mtu - p.Header.Len()) &^ 7
	chunkN := (mtu - HeaderLen) &^ 7
	if chunk0 <= 0 {
		return dst, fmt.Errorf("ipv4: mtu %d leaves no room for payload", mtu)
	}
	base := int(p.FragOffset) * 8
	payload := p.Payload
	chunk := chunk0
	for off := 0; off < len(payload); off += chunk {
		f := Packet{Header: p.Header, TraceID: p.TraceID}
		if off > 0 {
			chunk = chunkN
			f.Options = nil
		}
		end := min(off+chunk, len(payload))
		f.Payload = payload[off:end]
		f.FragOffset = uint16((base + off) / 8)
		f.MoreFrags = end < len(payload) || p.MoreFrags
		dst = append(dst, f)
	}
	return dst, nil
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
// no second assembly pass. A finished context keeps its buf, covered and
// opts backing arrays for reuse (Reassembler.free).
type fragContext struct {
	buf      []byte     // payload being assembled, len == highest byte seen
	covered  []fragSpan // sorted, disjoint, non-adjacent received ranges
	opts     []byte     // owned copy of the zero-offset fragment's options
	total    int        // total payload length, -1 until final fragment seen
	header   Header     // header of the zero-offset fragment, Options in opts
	sawFirst bool
}

// maxFreeContexts bounds the finished contexts a Reassembler keeps for
// reuse, so a host's reassembly memory does not grow with its traffic.
const maxFreeContexts = 4

// Reassembler reconstructs original packets from fragments. It is driven by
// explicit Expire calls (the owning stack wires a vtime timer) rather than
// wall-clock time, keeping the package free of scheduler dependencies.
//
// In steady state it allocates nothing: completed and expired contexts go
// to a free list of at most maxFreeContexts entries, and the next new
// packet takes its assembly buffer from there.
type Reassembler struct {
	contexts map[fragKey]*fragContext
	free     [maxFreeContexts]*fragContext // reset contexts, free[:nfree]
	nfree    int
	lent     *fragContext // context whose payload Add last returned
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
//
// The payload and options of a reassembled packet are borrowed from r,
// like a link-layer frame's payload: they stay valid until the caller
// hands them back with Release, which lets r reuse the storage for a later
// packet. A packet never handed back stays valid: r leaves its storage to
// the collector. The fragment's own bytes are copied before Add returns,
// so its buffer may be recycled at once.
func (r *Reassembler) Add(p Packet) (out Packet, done bool, err error) {
	if !p.MoreFrags && p.FragOffset == 0 {
		return p, true, nil
	}
	key := fragKey{p.Src, p.Dst, p.Protocol, p.ID}
	ctx := r.contexts[key]
	if ctx == nil {
		ctx = r.newContext()
		r.contexts[key] = ctx
	}
	off := int(p.FragOffset) * 8
	end := off + len(p.Payload)
	if !p.MoreFrags {
		if total := ctx.total; total >= 0 && total != end {
			delete(r.contexts, key)
			r.recycle(ctx)
			r.Drops++
			return Packet{}, false, fmt.Errorf("ipv4: conflicting reassembly lengths (%d vs %d)", total, end)
		}
		ctx.total = end
	}
	if off == 0 && !ctx.sawFirst {
		ctx.header = p.Header
		ctx.header.Options = nil
		if len(p.Options) > 0 {
			ctx.opts = append(ctx.opts, p.Options...)
			ctx.header.Options = ctx.opts
		}
		ctx.sawFirst = true
	}
	ctx.add(off, p.Payload)
	if ctx.total < 0 || !ctx.sawFirst ||
		len(ctx.covered) != 1 || ctx.covered[0] != (fragSpan{0, ctx.total}) {
		return Packet{}, false, nil
	}
	delete(r.contexts, key)
	// A context still lent out (its borrower never called Release) is
	// left to the collector: its bytes may yet be read.
	r.lent = ctx
	out = Packet{Header: ctx.header, Payload: ctx.buf[:ctx.total]}
	out.MoreFrags = false
	out.FragOffset = 0
	return out, true, nil
}

// Release hands back the payload of the packet Add last reassembled: the
// caller and everything it passed the packet to are done with its bytes.
// It is a no-op when nothing is lent out.
func (r *Reassembler) Release() {
	if r.lent != nil {
		r.recycle(r.lent)
		r.lent = nil
	}
}

// newContext returns an empty context, reusing a freed one if there is one.
func (r *Reassembler) newContext() *fragContext {
	if r.nfree > 0 {
		r.nfree--
		return r.free[r.nfree]
	}
	return &fragContext{total: -1}
}

// recycle empties ctx, keeping its backing arrays, and keeps it for reuse
// while the free list has room.
func (r *Reassembler) recycle(ctx *fragContext) {
	if r.nfree < maxFreeContexts {
		*ctx = fragContext{buf: ctx.buf[:0], covered: ctx.covered[:0], opts: ctx.opts[:0], total: -1}
		r.free[r.nfree] = ctx
		r.nfree++
	}
}

// add copies the not-yet-covered bytes of a fragment spanning [off, end)
// into the assembly buffer (earlier arrivals win on overlap) and merges
// the span into covered. An empty fragment covers nothing.
func (ctx *fragContext) add(off int, payload []byte) {
	end := off + len(payload)
	if end == off {
		return
	}
	if end > len(ctx.buf) {
		if end > cap(ctx.buf) {
			// Once the final fragment is seen the size is known;
			// until then, leave room for what is still to come.
			size := max(2*end, 2*cap(ctx.buf))
			if ctx.total >= end {
				size = ctx.total
			}
			grown := make([]byte, end, size)
			copy(grown, ctx.buf)
			ctx.buf = grown
		} else {
			ctx.buf = ctx.buf[:end]
		}
	}
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
			copy(ctx.buf[cur:seg], payload[cur-off:seg-off])
		}
		cur = max(cur, c.last)
		if cur >= end {
			break
		}
	}
	if cur < end {
		copy(ctx.buf[cur:end], payload[cur-off:end-off])
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
}

// Expire discards every in-progress context, keeping up to
// maxFreeContexts of them for reuse; the owning stack calls it on a
// reassembly timeout tick. It returns the number of contexts dropped.
// A packet lent out by Add is not in progress and stays valid.
func (r *Reassembler) Expire() int {
	n := len(r.contexts)
	// Which contexts are kept is unobservable: each is reset.
	for _, ctx := range r.contexts {
		r.recycle(ctx)
	}
	clear(r.contexts)
	r.Drops += uint64(n)
	return n
}
