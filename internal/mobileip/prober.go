package mobileip

import (
	"sort"

	"mob4x4/internal/ipv4"
	"mob4x4/internal/vtime"
)

// AutoProber completes the pessimistic strategy of Section 7.1.2: "start
// with the most conservative (Out-IE), and then over the lifetime of the
// conversation tentatively try each of the more aggressive options
// (Out-DE and Out-DH), at each stage being prepared to return to the
// conservative method if the more aggressive method fails." It
// periodically asks the selector to probe one step up the ladder for
// every active correspondent; the transport feedback loop confirms or
// rolls back each probe.
type AutoProber struct {
	mn       *MobileNode
	interval vtime.Duration
	active   map[ipv4.Addr]bool
	timer    *vtime.Timer
	stopped  bool
	// RetryTemporary, when set, also re-enables the temporary-address
	// (Out-DT) path for every tracked correspondent on each tick, so a
	// port-heuristic conversation demoted by ingress filtering probes
	// for the filter's removal instead of staying demoted forever.
	RetryTemporary bool
	// Probes counts upgrade attempts started.
	Probes uint64
}

// NewAutoProber starts probing every interval for correspondents
// registered with Track. Stop it with Stop.
func NewAutoProber(mn *MobileNode, interval vtime.Duration) *AutoProber {
	p := &AutoProber{
		mn:       mn,
		interval: interval,
		active:   make(map[ipv4.Addr]bool),
	}
	p.timer = vtime.NewTimer(p.tick)
	p.arm()
	return p
}

// Track adds a correspondent to the probing set (call when a conversation
// starts).
func (p *AutoProber) Track(dst ipv4.Addr) { p.active[dst] = true }

// Stop halts probing and releases the pending tick, so a stopped prober
// leaves nothing in the scheduler.
func (p *AutoProber) Stop() {
	p.stopped = true
	p.timer.Stop()
}

func (p *AutoProber) arm() {
	p.timer.Reset(p.mn.host.Sched(), p.interval)
}

func (p *AutoProber) tick() {
	if p.stopped {
		return
	}
	if !p.mn.AtHome() && len(p.active) > 0 {
		sel := p.mn.Selector()
		// Probe in address order: map iteration order must never reach
		// the selector, or runs stop being byte-reproducible.
		dsts := make([]ipv4.Addr, 0, len(p.active))
		for dst := range p.active {
			dsts = append(dsts, dst)
		}
		sort.Slice(dsts, func(i, j int) bool { return dsts[i].Less(dsts[j]) })
		for _, dst := range dsts {
			if ok, _ := sel.TryUpgrade(dst); ok {
				p.Probes++
			}
			if p.RetryTemporary && sel.RetryTemporary(dst) {
				p.Probes++
			}
		}
	}
	p.arm()
}
