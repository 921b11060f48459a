package fleet

import (
	"reflect"
	"testing"

	"mob4x4/internal/core"
	"mob4x4/internal/netsim"
)

// roOpts is the CI-sized route-optimization fleet.
func roOpts(seed int64, ro RouteOptOptions) Options {
	o := smallOpts(seed)
	o.RouteOpt = ro
	return o
}

func runClean(t *testing.T, opts Options) Result {
	t.Helper()
	outstanding := netsim.BufOutstanding()
	r := New(opts).Run()
	for _, v := range r.Violations {
		t.Errorf("violation: %s", v)
	}
	if got := netsim.BufOutstanding(); got != outstanding {
		t.Errorf("pooled buffers outstanding drifted %d -> %d across the run", outstanding, got)
	}
	return r
}

// TestFleetRouteOptPush: MN-push binding updates reach the aware
// correspondent, get acked, and shrink the correspondent's
// stale-binding window relative to the notice-only baseline.
func TestFleetRouteOptPush(t *testing.T) {
	base := runClean(t, roOpts(1, RouteOptOptions{Enabled: true}))
	push := runClean(t, roOpts(1, RouteOptOptions{PushUpdates: true}))
	if push.PushUpdatesSent == 0 || push.PushAcks == 0 {
		t.Fatalf("push tier idle: sent=%d acks=%d", push.PushUpdatesSent, push.PushAcks)
	}
	if push.CHUpdatesAccepted == 0 {
		t.Errorf("aware correspondent accepted no pushed update")
	}
	// Pushes to the update-deaf correspondents (probe, kiosk, facade
	// peers) must exhaust their retries, not hang.
	if push.PushAbandons == 0 {
		t.Errorf("no push was ever abandoned despite update-deaf correspondents")
	}
	if base.RecoverySamples == 0 || push.RecoverySamples == 0 {
		t.Fatalf("recovery histogram empty: base=%d push=%d",
			base.RecoverySamples, push.RecoverySamples)
	}
	if push.RecoveryP95 >= base.RecoveryP95 {
		t.Errorf("pushed updates did not shrink the correspondent recovery tail: p95 %d (push) >= %d (baseline)",
			push.RecoveryP95, base.RecoveryP95)
	}
}

// TestFleetRouteOptPushAuth: the signed paths of the tier under
// fleet-wide auth — MN-push updates, HA-push updates (signed by the hub's
// own authenticators) and regional registrations at the gateway's keys.
// Every message is signed and verified, and no legitimate one trips a
// reject.
func TestFleetRouteOptPushAuth(t *testing.T) {
	for _, c := range []struct {
		name string
		ro   RouteOptOptions
	}{
		{"mn-push", RouteOptOptions{PushUpdates: true}},
		{"ha-push", RouteOptOptions{PushFromHA: true}},
		{"hierarchical", RouteOptOptions{PushUpdates: true, Hierarchical: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := roOpts(2, c.ro)
			o.Auth = true
			r := runClean(t, o)
			if n := r.AuthBadMACDrops + r.AuthReplayDrops + r.AuthStaleDrops; n != 0 {
				t.Errorf("legitimate traffic tripped %d auth drops (bad_mac=%d replay=%d stale=%d)",
					n, r.AuthBadMACDrops, r.AuthReplayDrops, r.AuthStaleDrops)
			}
			if r.PushAcks == 0 || r.CHUpdatesAccepted == 0 {
				t.Fatalf("authenticated push tier idle: acks=%d accepted=%d",
					r.PushAcks, r.CHUpdatesAccepted)
			}
			if c.ro.Hierarchical && r.RegionalRegistrations == 0 {
				t.Errorf("gateway accepted no signed regional registration")
			}
		})
	}
}

// TestFleetRouteOptPushFromHA: the HA-push alternative also reaches the
// aware correspondent (it sees its In-IE traffic).
func TestFleetRouteOptPushFromHA(t *testing.T) {
	r := runClean(t, roOpts(3, RouteOptOptions{PushFromHA: true}))
	if r.PushUpdatesSent == 0 || r.PushAcks == 0 {
		t.Fatalf("ha-push tier idle: sent=%d acks=%d", r.PushUpdatesSent, r.PushAcks)
	}
}

// TestFleetRouteOptCompact: compact encapsulation carries the whole
// storm — every tunnel mode still completes conversations — with fewer
// bytes on the home uplink than IPIP moves for the same schedule.
func TestFleetRouteOptCompact(t *testing.T) {
	// The baseline must match the compact run's schedule exactly, so it
	// drops foreign agents the same way Compact forces.
	bo := roOpts(4, RouteOptOptions{Enabled: true})
	bo.FAEvery = -1
	base := runClean(t, bo)
	o := roOpts(4, RouteOptOptions{Compact: true})
	f := New(o)
	if f.Opts.FAEvery != -1 {
		t.Fatalf("compact fleet kept foreign agents: FAEvery=%d", f.Opts.FAEvery)
	}
	r := f.Run()
	for _, v := range r.Violations {
		t.Errorf("violation: %s", v)
	}
	for _, c := range []struct {
		out core.OutMode
		in  core.InMode
	}{
		{core.OutIE, core.InIE},
		{core.OutDE, core.InDE},
	} {
		if r.ModeMix[c.out][c.in] == 0 {
			t.Errorf("compact run lost the [%v][%v] conversations", c.out, c.in)
		}
	}
	if r.UplinkBytes >= base.UplinkBytes {
		t.Errorf("compact encapsulation did not reduce home-uplink bytes: %d (compact) >= %d (ipip)",
			r.UplinkBytes, base.UplinkBytes)
	}
}

// TestFleetRouteOptHierarchical: the regional tier registers intra-metro
// handoffs at the gateway, relays tunnels both ways, and keeps the
// registration traffic those handoffs used to send off the home uplink.
func TestFleetRouteOptHierarchical(t *testing.T) {
	r := runClean(t, roOpts(5, RouteOptOptions{Hierarchical: true}))
	if r.RegionalRegistrations == 0 {
		t.Fatalf("gateway accepted no regional registration")
	}
	if r.GFADownRelayed == 0 || r.GFAUpRelayed == 0 {
		t.Errorf("gateway relay idle: down=%d up=%d", r.GFADownRelayed, r.GFAUpRelayed)
	}
	if r.LocalRegFails > r.RegionalRegistrations/10 {
		t.Errorf("local registration unreliable: %d fails vs %d accepts",
			r.LocalRegFails, r.RegionalRegistrations)
	}
	// Most handoffs are intra-metro: the home uplink's queueing tail —
	// where storm handoffs pile up — must vanish, along with the
	// registration bytes those handoffs used to send over the uplink.
	base := runClean(t, roOpts(5, RouteOptOptions{Enabled: true}))
	if r.HandoffP95 >= base.HandoffP95 {
		t.Errorf("hierarchical handoffs did not collapse the tail: p95 %d >= %d",
			r.HandoffP95, base.HandoffP95)
	}
	if r.UplinkBytes >= base.UplinkBytes {
		t.Errorf("hierarchical registration did not reduce home-uplink bytes: %d >= %d",
			r.UplinkBytes, base.UplinkBytes)
	}
}

// TestFleetRouteOptBlackholeFallback is the fallback proof: with every
// binding-update request silently discarded, pushes abandon, nothing is
// learned, and the fleet invariants (all bindings re-formed, every
// conversation class alive) still hold via In-IE triangle routing.
func TestFleetRouteOptBlackholeFallback(t *testing.T) {
	r := runClean(t, roOpts(6, RouteOptOptions{PushUpdates: true, BlackholeUpdates: true}))
	if r.PushAcks != 0 || r.CHUpdatesAccepted != 0 {
		t.Fatalf("blackholed updates got through: acks=%d accepted=%d",
			r.PushAcks, r.CHUpdatesAccepted)
	}
	if r.PushAbandons == 0 || r.BlackholeDrops == 0 {
		t.Fatalf("blackhole never bit: abandons=%d drops=%d", r.PushAbandons, r.BlackholeDrops)
	}
	if r.ModeMix[core.OutIE][core.InIE] == 0 {
		t.Errorf("triangle-routed conversations died with the push tier down")
	}
}

// TestFleetRouteOptDeterminism: the full tier (hierarchy + push + auth)
// is byte-identical run-to-run and across worker counts, like every
// other fleet configuration.
func TestFleetRouteOptDeterminism(t *testing.T) {
	o := roOpts(7, RouteOptOptions{PushUpdates: true, Hierarchical: true})
	o.Auth = true
	serial := New(o).Run()
	repeat := New(o).Run()
	if !reflect.DeepEqual(serial, repeat) {
		t.Fatalf("two runs of the same route-opt options diverged:\n%+v\nvs\n%+v", serial, repeat)
	}
	for _, workers := range []int{2, 4} {
		po := o
		po.Workers = workers
		got := New(po).Run()
		if !reflect.DeepEqual(serial, got) {
			t.Errorf("workers=%d diverged from serial route-opt run", workers)
		}
	}
}
