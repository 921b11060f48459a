package mobileip

import (
	"mob4x4/internal/core"
	"mob4x4/internal/ipv4"
)

// SelectorFeedback adapts the transport's original-vs-retransmission
// signals (tcplite.FeedbackListener) to the mode selector, realizing the
// IP-interface addition proposed in Section 7.1.2: "If the IP layer sees
// repeated retransmissions to a particular address, then this suggests
// that the currently selected delivery method may not be working."
type SelectorFeedback struct {
	Selector *core.Selector

	// Switches counts delivery-method changes triggered by feedback.
	Switches uint64
}

// Retransmission implements tcplite.FeedbackListener.
func (f *SelectorFeedback) Retransmission(remote ipv4.Addr) {
	if switched, _ := f.Selector.ReportRetransmission(remote); switched {
		f.Switches++
	}
}

// Progress implements tcplite.FeedbackListener.
func (f *SelectorFeedback) Progress(remote ipv4.Addr) {
	f.Selector.ReportSuccess(remote)
}
