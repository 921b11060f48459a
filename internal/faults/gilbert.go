package faults

import (
	"math/rand/v2"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/metrics"
	"mob4x4/internal/netsim"
	"mob4x4/internal/vtime"
)

// LinkFaultOpts parameterizes a link impairment. All probabilities are
// per-frame in [0,1]; zero values disable that impairment.
type LinkFaultOpts struct {
	// Gilbert-Elliott two-state burst loss: the link alternates between a
	// good state (loss GoodLoss) and a bad state (loss BadLoss), with
	// per-frame transition probabilities PGoodBad and PBadGood. With both
	// transition probabilities zero the chain stays in the good state and
	// the model degenerates to uniform loss at GoodLoss.
	PGoodBad float64
	PBadGood float64
	GoodLoss float64
	BadLoss  float64

	// DupRate duplicates a surviving frame (one extra copy).
	DupRate float64
	// CorruptRate flips one random payload bit in a surviving frame.
	CorruptRate float64
	// ReorderRate holds a surviving frame back by a uniform extra delay in
	// (0, ReorderMax], letting later frames overtake it.
	ReorderRate float64
	ReorderMax  vtime.Duration
}

// LinkFault is an installed link impairment: a Gilbert-Elliott loss chain
// plus independent duplication / corruption / reordering draws, attached
// to one segment's fault hook. Drops are counted centrally: the verdict
// attributes them to metrics.DropGilbertElliott, so the registry's
// drop-cause vector — not a per-fault field — is the one source of
// truth (read it with sim.Metrics.DropCount).
type LinkFault struct {
	seg  *netsim.Segment
	opts LinkFaultOpts
	rng  *rand.Rand
	bad  bool

	Dups     uint64
	Corrupts uint64
	Reorders uint64
}

// ImpairLink installs a LinkFault on seg, replacing any previous fault
// hook. The fault owns a stream derived from (seed, index) so its chain
// clocking is reproducible per seed and independent of every other
// entity's draws. Remove() detaches it.
func ImpairLink(sim *netsim.Sim, seg *netsim.Segment, opts LinkFaultOpts) *LinkFault {
	lf := &LinkFault{seg: seg, opts: opts, rng: sim.Sched.NewStream()}
	seg.SetFaultHook(lf.verdict)
	return lf
}

func (lf *LinkFault) verdict(netsim.Frame) netsim.Impairment {
	// State transition first (per-frame chain clocking), then the loss
	// draw for the state we land in.
	if lf.bad {
		if lf.opts.PBadGood > 0 && lf.rng.Float64() < lf.opts.PBadGood {
			lf.bad = false
		}
	} else {
		if lf.opts.PGoodBad > 0 && lf.rng.Float64() < lf.opts.PGoodBad {
			lf.bad = true
		}
	}
	loss := lf.opts.GoodLoss
	if lf.bad {
		loss = lf.opts.BadLoss
	}
	if loss > 0 && lf.rng.Float64() < loss {
		return netsim.Impairment{Drop: true, Cause: metrics.DropGilbertElliott}
	}
	var imp netsim.Impairment
	if lf.opts.DupRate > 0 && lf.rng.Float64() < lf.opts.DupRate {
		lf.Dups++
		imp.Duplicate = true
	}
	if lf.opts.CorruptRate > 0 && lf.rng.Float64() < lf.opts.CorruptRate {
		lf.Corrupts++
		imp.Corrupt = true
	}
	if lf.opts.ReorderRate > 0 && lf.opts.ReorderMax > 0 && lf.rng.Float64() < lf.opts.ReorderRate {
		lf.Reorders++
		imp.ExtraDelay = vtime.Duration(1 + lf.rng.Int64N(int64(lf.opts.ReorderMax)))
	}
	return imp
}

// InBadState reports whether the Gilbert-Elliott chain is currently in
// the bad (bursty-loss) state.
func (lf *LinkFault) InBadState() bool { return lf.bad }

// Remove detaches the impairment from its segment if it is still the
// installed hook. Safe to call twice.
func (lf *LinkFault) Remove() {
	lf.seg.SetFaultHook(nil)
}

// Blackhole silently discards IPv4 frames whose source address matches —
// an ingress filter appearing mid-conversation (Section 3.1 of the
// paper), from the sender's point of view: packets vanish with no error.
// Drops land under metrics.DropBlackhole in the owning sim's registry.
type Blackhole struct {
	seg *netsim.Segment
	src ipv4.Addr
}

// BlackholeSource installs a blackhole on seg for IPv4 frames sourced
// from src, replacing any previous fault hook.
func BlackholeSource(seg *netsim.Segment, src ipv4.Addr) *Blackhole {
	bh := &Blackhole{seg: seg, src: src}
	seg.SetFaultHook(bh.verdict)
	return bh
}

func (bh *Blackhole) verdict(f netsim.Frame) netsim.Impairment {
	// IPv4 source address lives at bytes 12..15 of the header.
	if f.Type == netsim.EtherTypeIPv4 && len(f.Payload) >= 20 &&
		f.Payload[12] == bh.src[0] && f.Payload[13] == bh.src[1] &&
		f.Payload[14] == bh.src[2] && f.Payload[15] == bh.src[3] {
		return netsim.Impairment{Drop: true, Cause: metrics.DropBlackhole}
	}
	return netsim.Impairment{}
}

// Remove detaches the blackhole from its segment.
func (bh *Blackhole) Remove() {
	bh.seg.SetFaultHook(nil)
}

// PortBlackhole silently discards UDP datagrams addressed to one
// destination port — a middlebox that eats a control protocol while
// passing everything else. E17 uses it to blackhole binding updates
// (port 435) and prove the route-optimization tier's hard fallback:
// updates vanish, cached bindings expire, and every conversation
// degrades to In-IE triangle routing instead of a black hole.
type PortBlackhole struct {
	seg  *netsim.Segment
	port uint16
}

// BlackholePort installs a blackhole on seg for UDP frames destined to
// dstPort, replacing any previous fault hook.
func BlackholePort(seg *netsim.Segment, dstPort uint16) *PortBlackhole {
	bh := &PortBlackhole{seg: seg, port: dstPort}
	seg.SetFaultHook(bh.verdict)
	return bh
}

func (bh *PortBlackhole) verdict(f netsim.Frame) netsim.Impairment {
	if f.Type != netsim.EtherTypeIPv4 || len(f.Payload) < 20 {
		return netsim.Impairment{}
	}
	b := f.Payload
	hlen := int(b[0]&0x0f) * 4
	// Protocol at byte 9; the UDP destination port sits two bytes into
	// the transport header.
	if b[9] != 17 || hlen < 20 || len(b) < hlen+4 {
		return netsim.Impairment{}
	}
	if uint16(b[hlen+2])<<8|uint16(b[hlen+3]) == bh.port {
		return netsim.Impairment{Drop: true, Cause: metrics.DropBlackhole}
	}
	return netsim.Impairment{}
}

// Remove detaches the blackhole from its segment.
func (bh *PortBlackhole) Remove() {
	bh.seg.SetFaultHook(nil)
}
