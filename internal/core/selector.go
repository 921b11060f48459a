package core

import (
	"fmt"
	"sort"

	"mob4x4/internal/ipv4"
)

// StartPolicy chooses which home-address delivery method a conversation
// begins with when nothing is known about the correspondent (Section
// 7.1.2).
type StartPolicy int

// The start policies the paper discusses.
const (
	// StartPessimistic: begin with Out-IE and tentatively try the more
	// aggressive options over the conversation's lifetime ([Fox96]).
	// Safe but "can be wasteful, because in many cases either one or
	// both of Out-DH and Out-DE will work fine".
	StartPessimistic StartPolicy = iota
	// StartOptimistic: begin with Out-DH and fall back through Out-DE to
	// Out-IE on failure. Wasteful where Out-DH "is known to fail every
	// time".
	StartOptimistic
)

func (p StartPolicy) String() string {
	if p == StartOptimistic {
		return "optimistic"
	}
	return "pessimistic"
}

// Rule is one user-configured entry of the address/mask table the paper
// proposes: "allow the user ... to specify rules stating which addresses
// Mobile IP should begin using in an optimistic mode and which addresses
// it should begin using in a pessimistic mode ... specified similarly to
// the way routing table entries are currently specified, as an address
// and a mask value."
type Rule struct {
	Prefix ipv4.Prefix
	Policy StartPolicy
	// ForceMode, when non-nil, pins the initial mode outright (e.g.
	// "the entire home network is a region where Out-IE should always
	// be used").
	ForceMode *OutMode
}

// RetransmissionThreshold is how many consecutive retransmissions to (or
// from) a correspondent the selector tolerates before concluding that the
// current delivery method is failing (Section 7.1.2's proposed
// original-vs-retransmission IP interface).
const RetransmissionThreshold = 2

// methodState is the per-correspondent entry of the delivery method cache:
// "The mobile host keeps a cache of the currently selected delivery
// method associated with each target IP address ... and allows it to
// build up a history, for each correspondent host, of which communication
// methods have proven to be successful and which have not."
type methodState struct {
	dst  ipv4.Addr
	mode OutMode
	// active is the mode the conversation's packets are actually using
	// right now. It usually equals mode, but diverges when the port
	// heuristic sends Out-DT while the cache holds a home-address mode:
	// transport feedback must then be attributed to Out-DT, not to the
	// cached mode, or a blackholed shortcut poisons the wrong rung.
	active OutMode
	// failed records modes observed not to work for this correspondent.
	failed [NumOutModes]bool
	// succeeded records modes observed to work.
	succeeded [NumOutModes]bool
	// retrans counts consecutive retransmissions since the last
	// delivery success.
	retrans int
	// probing marks a tentative upgrade in flight: on failure we return
	// to the last known-good mode instead of degrading further.
	probing  bool
	lastGood OutMode
	hasGood  bool
	// switches counts mode changes (experiment instrumentation).
	switches int
}

// Selector is the mobile host's outgoing-mode decision engine. It is not
// safe for concurrent use; the simulation is single-threaded.
type Selector struct {
	// DefaultPolicy applies where no rule matches.
	DefaultPolicy StartPolicy
	rules         []Rule
	// states is the method cache, one entry per correspondent. A mobile
	// host talks to a few correspondents between moves, so it is
	// scanned; past stateIndexMin entries index finds an entry instead.
	// Reset keeps the storage of both, so a move allocates nothing.
	states []methodState
	index  map[ipv4.Addr]int

	// CHCanDecapsulate reports (or guesses) whether a given
	// correspondent can decapsulate; when it returns false the selector
	// skips Out-DE in its ladders. Nil means "unknown: try it".
	CHCanDecapsulate func(ipv4.Addr) bool

	// Stats
	Decisions     uint64
	CacheHits     uint64
	ModeSwitches  uint64
	FallbackMoves uint64
	UpgradeMoves  uint64
	// DTDemotions counts conversations demoted off the Out-DT shortcut
	// after it started blackholing (newly appearing ingress filtering).
	DTDemotions uint64
}

// stateIndexMin is how many cached correspondents the selector scans
// before it looks them up in an index.
const stateIndexMin = 8

// NewSelector returns a selector with the given default start policy.
func NewSelector(def StartPolicy) *Selector {
	return &Selector{DefaultPolicy: def}
}

// AddRule installs a prefix rule. Longer prefixes take precedence.
func (s *Selector) AddRule(r Rule) {
	s.rules = append(s.rules, r)
	sort.SliceStable(s.rules, func(i, j int) bool {
		return s.rules[i].Prefix.Bits > s.rules[j].Prefix.Bits
	})
}

// ruleFor returns the best-matching rule, if any.
func (s *Selector) ruleFor(dst ipv4.Addr) *Rule {
	for i := range s.rules {
		if s.rules[i].Prefix.Contains(dst) {
			return &s.rules[i]
		}
	}
	return nil
}

// initialMode picks the first home-address mode for a fresh correspondent.
func (s *Selector) initialMode(dst ipv4.Addr) OutMode {
	policy := s.DefaultPolicy
	if r := s.ruleFor(dst); r != nil {
		if r.ForceMode != nil {
			return *r.ForceMode
		}
		policy = r.Policy
	}
	if policy == StartOptimistic {
		return OutDH
	}
	return OutIE
}

// ForcedMode reports whether a configured rule pins the outgoing mode
// for dst outright (the "Out-IE should always be used" kind of rule).
func (s *Selector) ForcedMode(dst ipv4.Addr) (OutMode, bool) {
	if r := s.ruleFor(dst); r != nil && r.ForceMode != nil {
		return *r.ForceMode, true
	}
	return 0, false
}

// ModeFor returns the outgoing mode to use for the next packet to dst.
// This is the hot path consulted by the route-lookup override; the method
// cache makes it O(1) after the first packet of a conversation ("This
// saves it from having to make the decision afresh for every packet").
func (s *Selector) ModeFor(dst ipv4.Addr) OutMode {
	s.Decisions++
	if i := s.find(dst); i >= 0 {
		st := &s.states[i]
		s.CacheHits++
		st.active = st.mode
		return st.mode
	}
	return s.state(dst).mode
}

// find returns the index of dst's cache entry, or -1.
func (s *Selector) find(dst ipv4.Addr) int {
	if len(s.states) > stateIndexMin {
		if i, ok := s.index[dst]; ok {
			return i
		}
		return -1
	}
	for i := range s.states {
		if s.states[i].dst == dst {
			return i
		}
	}
	return -1
}

// state returns (creating if needed) the cache entry for dst. The pointer
// is valid until the next entry is created.
func (s *Selector) state(dst ipv4.Addr) *methodState {
	if i := s.find(dst); i >= 0 {
		return &s.states[i]
	}
	m := s.initialMode(dst)
	s.states = append(s.states, methodState{dst: dst, mode: m, active: m})
	n := len(s.states)
	switch {
	case n == stateIndexMin+1:
		// Crossing the threshold (again): rebuild the index.
		if s.index == nil {
			s.index = make(map[ipv4.Addr]int, 2*n)
		}
		clear(s.index)
		for i := range s.states {
			s.index[s.states[i].dst] = i
		}
	case n > stateIndexMin+1:
		s.index[dst] = n - 1
	}
	return &s.states[n-1]
}

// ReportSuccess records that the current method delivered (an
// acknowledgement or reply arrived that was not a retransmission).
func (s *Selector) ReportSuccess(dst ipv4.Addr) {
	st := s.state(dst)
	st.retrans = 0
	st.succeeded[st.active] = true
	if st.active != st.mode {
		// Success on the temporary-address shortcut (port heuristic):
		// confirm Out-DT works again without touching the home-address
		// method history.
		st.failed[st.active] = false
		return
	}
	st.lastGood, st.hasGood = st.mode, true
	if st.probing {
		st.probing = false // tentative upgrade confirmed
	}
}

// ReportRetransmission implements the IP-interface addition the paper
// proposes: transports tell IP whether each packet is an original or a
// retransmission; repeated retransmissions in either direction suggest
// the current delivery method is not working. After
// RetransmissionThreshold consecutive retransmissions the selector
// switches modes and reports the change.
func (s *Selector) ReportRetransmission(dst ipv4.Addr) (switched bool, newMode OutMode) {
	st := s.state(dst)
	st.retrans++
	if st.retrans < RetransmissionThreshold {
		return false, st.mode
	}
	st.retrans = 0
	st.failed[st.active] = true
	st.succeeded[st.active] = false
	if st.active == OutDT && st.mode != OutDT {
		// The port heuristic's Out-DT shortcut is blackholing (ingress
		// filtering appeared mid-conversation): demote this
		// correspondent to the cached home-address mode. Recovery is a
		// separate probe (RetryTemporary) — repeated timeouts must not
		// keep burning packets on a dead shortcut.
		st.active = st.mode
		s.DTDemotions++
		s.FallbackMoves++
		return true, st.mode
	}
	if st.probing && st.hasGood && !st.failed[st.lastGood] {
		// A tentative upgrade failed: fall straight back to the last
		// mode that worked.
		st.probing = false
		s.setMode(st, st.lastGood)
		s.FallbackMoves++
		return true, st.mode
	}
	next, ok := s.nextFallback(dst, st)
	if !ok {
		// Everything failed; the paper's floor is Out-IE, which "can
		// be relied upon to work in all situations". Reset history so
		// we can try again if the world changes.
		for i := range st.failed {
			st.failed[i] = false
		}
		next = OutIE
	}
	s.setMode(st, next)
	s.FallbackMoves++
	return true, st.mode
}

// nextFallback walks down the conservative ladder DH -> DE -> IE skipping
// modes known to fail and Out-DE when the correspondent cannot
// decapsulate.
func (s *Selector) nextFallback(dst ipv4.Addr, st *methodState) (OutMode, bool) {
	ladder := []OutMode{OutDH, OutDE, OutIE}
	idx := 0
	for i, m := range ladder {
		if m == st.mode {
			idx = i + 1
			break
		}
	}
	for _, m := range ladder[idx:] {
		if st.failed[m] {
			continue
		}
		if m == OutDE && s.CHCanDecapsulate != nil && !s.CHCanDecapsulate(dst) {
			continue
		}
		return m, true
	}
	return OutIE, false
}

// TryUpgrade tentatively moves one step up the aggressive ladder
// IE -> DE -> DH for dst (the pessimistic strategy's periodic probe). It
// reports whether a probe was started. A probe that fails rolls back via
// ReportRetransmission; one that works is confirmed by ReportSuccess.
func (s *Selector) TryUpgrade(dst ipv4.Addr) (bool, OutMode) {
	st := s.state(dst)
	if st.probing {
		return false, st.mode
	}
	ladder := []OutMode{OutIE, OutDE, OutDH}
	idx := len(ladder)
	for i, m := range ladder {
		if m == st.mode {
			idx = i + 1
			break
		}
	}
	for _, m := range ladder[idx:] {
		if st.failed[m] {
			continue
		}
		if m == OutDE && s.CHCanDecapsulate != nil && !s.CHCanDecapsulate(dst) {
			continue
		}
		st.lastGood, st.hasGood = st.mode, true
		st.probing = true
		s.setMode(st, m)
		s.UpgradeMoves++
		return true, st.mode
	}
	return false, st.mode
}

func (s *Selector) setMode(st *methodState, m OutMode) {
	st.active = m
	if st.mode != m {
		st.mode = m
		st.switches++
		s.ModeSwitches++
	}
}

// NoteTemporary records that the next packets to dst use the temporary
// address (the port heuristic chose Out-DT), so transport feedback is
// attributed to the Out-DT path rather than the cached home-address mode.
func (s *Selector) NoteTemporary(dst ipv4.Addr) {
	s.state(dst).active = OutDT
}

// TemporaryUsable reports whether Out-DT is believed deliverable for dst.
// Unknown correspondents default to usable; a correspondent whose
// shortcut blackholed reports false until RetryTemporary clears it.
func (s *Selector) TemporaryUsable(dst ipv4.Addr) bool {
	if i := s.find(dst); i >= 0 {
		return !s.states[i].failed[OutDT]
	}
	return true
}

// RetryTemporary clears dst's Out-DT failure mark so the port heuristic
// may try the temporary address again (the recovery probe paired with
// the demotion in ReportRetransmission). It reports whether a mark was
// actually cleared.
func (s *Selector) RetryTemporary(dst ipv4.Addr) bool {
	i := s.find(dst)
	if i < 0 || !s.states[i].failed[OutDT] {
		return false
	}
	s.states[i].failed[OutDT] = false
	return true
}

// Forget drops the cache entry for dst (e.g. after moving to a network
// with different filtering, the old history may be invalid).
func (s *Selector) Forget(dst ipv4.Addr) {
	i := s.find(dst)
	if i < 0 {
		return
	}
	last := len(s.states) - 1
	if len(s.states) > stateIndexMin {
		delete(s.index, dst)
		if i != last {
			s.index[s.states[last].dst] = i
		}
	}
	s.states[i] = s.states[last]
	s.states = s.states[:last]
}

// Reset clears the whole cache (used when the mobile host moves).
func (s *Selector) Reset() { s.states = s.states[:0] }

// CacheLen reports the number of cached correspondents.
func (s *Selector) CacheLen() int { return len(s.states) }

// Snapshot renders the cache entry for dst for debugging.
func (s *Selector) Snapshot(dst ipv4.Addr) string {
	i := s.find(dst)
	if i < 0 {
		return fmt.Sprintf("%s: (no entry)", dst)
	}
	st := &s.states[i]
	return fmt.Sprintf("%s: mode=%s probing=%v switches=%d failed=%v", dst, st.mode, st.probing, st.switches, st.failed)
}
