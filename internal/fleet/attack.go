package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"mob4x4/internal/assert"
	"mob4x4/internal/faults"
	"mob4x4/internal/ipv4"
	"mob4x4/internal/mobileip"
	"mob4x4/internal/vtime"
)

// The adversarial storm: fleet-side wiring for the faults package's
// attack actors (binding thieves, replayer, rogue agents) plus the
// hijack monitor that decides E15. Everything here is built before
// routes are computed and scheduled before the run starts; during the
// run each actor's events execute on its own region's shard, so the
// attack adds no cross-shard traffic beyond the packets it sends.

// maxCapturesPerActor bounds how many requests a tap keeps.
const maxCapturesPerActor = 32

// rogueTamperDelay is the lag between a rogue's capture and its
// tampered re-emission — a relay that thinks before it rewrites.
const rogueTamperDelay = 50 * millisecond

// attackState holds the built adversarial actors and the hijack count.
type attackState struct {
	thieves  []*faults.BindingThief
	replayer *faults.Replayer
	rogue    *faults.RogueFA

	// attackerAddrs marks every attacker source address. Written only
	// during build; read-only during the run (taps on any shard consult
	// it, which is safe precisely because nothing writes it anymore).
	attackerAddrs map[ipv4.Addr]bool

	// hijacks counts bindings that ever pointed at an attacker care-of
	// address. Written only by the home agent's OnBind hook, i.e. on
	// the hub shard.
	hijacks uint64
}

// authKeyFor derives node idx's registration key from the fleet seed.
// Deterministic and per-node distinct; the node's and the home agent's
// authenticators are built from it separately, so no HMAC state is
// shared across shards.
func authKeyFor(seed int64, idx int) []byte {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], uint64(seed))
	binary.BigEndian.PutUint64(b[8:], uint64(idx))
	sum := sha256.Sum256(b[:])
	return sum[:]
}

// authSPIFor names node idx's mobility security association.
func authSPIFor(idx int) uint32 { return 0x4d4e_0000 + uint32(idx) }

// buildAttackers constructs the adversarial hosts and actors. Called
// from buildTopology after the home agent exists and before routes are
// computed (the attackers need routes like anyone else). No-op unless
// the storm is armed.
func (f *Fleet) buildAttackers() {
	if !f.Opts.Attack.Enabled {
		return
	}
	n := f.Net
	ak := &attackState{attackerAddrs: make(map[ipv4.Addr]bool)}
	f.attack = ak
	// skip filters attacker-sourced frames out of the taps: without it a
	// tap would capture another actor's (or its own) emissions and the
	// exact-attribution invariant would double-count.
	skip := func(src ipv4.Addr) bool { return ak.attackerAddrs[src] }

	for k := 0; k < thieves; k++ {
		c := k % f.Opts.Cells
		n.SetBuildRegion(regionOf(c))
		host := n.AddHost(fmt.Sprintf("thief%d", k), f.Cells[c].LAN)
		th, err := faults.NewBindingThief(host, f.HA.Addr())
		assert.NoError(err, "fleet: binding thief")
		ak.attackerAddrs[th.Addr()] = true
		ak.thieves = append(ak.thieves, th)
	}

	c := 1 % f.Opts.Cells
	n.SetBuildRegion(regionOf(c))
	rg, err := faults.NewRogueFA(n.AddHost("rogue0", f.Cells[c].LAN), f.Cells[c].LAN.Seg, f.HA.Addr(),
		maxCapturesPerActor, rogueTamperDelay, skip)
	assert.NoError(err, "fleet: rogue agent")
	ak.attackerAddrs[rg.Addr()] = true
	ak.rogue = rg

	n.SetBuildRegion(0)
	r, err := faults.NewReplayer(n.AddHost("replayer0", f.HomeLAN), f.HomeLAN.Seg,
		maxCapturesPerActor, replayDelay, skip)
	assert.NoError(err, "fleet: replayer")
	ak.attackerAddrs[r.Host().FirstAddr()] = true
	ak.replayer = r

	// The hijack monitor: fires on the hub shard for every binding the
	// home agent installs. A single binding to an attacker care-of
	// address is the failure E15 exists to rule out.
	f.HA.OnBind = func(home, careOf ipv4.Addr) {
		if ak.attackerAddrs[careOf] {
			ak.hijacks++
		}
	}
}

// scheduleAttack lays the adversarial plan into the shard schedulers:
// hub-side injector lines document the plan in the fault log, and each
// actor's actions are scheduled on its own region's scheduler. Called
// from Run before the workers start.
func (f *Fleet) scheduleAttack(inj *faults.Injector, at func(vtime.Duration) vtime.Time) {
	ak := f.attack

	inj.At(at(forgeAt), fmt.Sprintf("attack: %d thieves forge %d registrations over %v",
		len(ak.thieves), len(ak.thieves)*forgeCount, forgeWindow), nil)
	for k, th := range ak.thieves {
		th := th
		rng := vtime.Stream(f.Opts.Seed, vtime.DomainFleetAttacker, uint64(k))
		sched := th.Host().Sched()
		for i := 0; i < forgeCount; i++ {
			victim := f.Nodes[rng.IntN(len(f.Nodes))].MN.Home()
			off := forgeAt + vtime.Duration(int64(forgeWindow)*int64(i)/int64(forgeCount))
			off += vtime.Duration(rng.Int64N(int64(10 * millisecond)))
			// Alternate between naked forgeries (no extension) and ones
			// carrying a fabricated MAC, covering both denial paths.
			bogus := i%2 == 1
			sched.At(at(off), func() { th.Forge(victim, bogus) })
		}
	}

	r := ak.replayer
	sched := r.Host().Sched()
	inj.At(at(captureAt), fmt.Sprintf("attack: replayer taps home LAN for %v, prompt replay +%v",
		captureFor, replayDelay), nil)
	sched.At(at(captureAt), r.StartCapture)
	sched.At(at(captureAt+captureFor), r.StopCapture)
	inj.At(at(lateReplayAt), fmt.Sprintf("attack: late replay of up to %d captures", lateReplays), nil)
	sched.At(at(lateReplayAt), func() { r.ReplayCaptured(lateReplays) })

	rg := ak.rogue
	sched = rg.Host().Sched()
	inj.At(at(captureAt), fmt.Sprintf("attack: rogue agent 0 taps its cell for %v", captureFor), nil)
	sched.At(at(captureAt), rg.StartRelay)
	sched.At(at(captureAt+captureFor), rg.StopRelay)
	// A few lure beacons across the window: fleet nodes attach by
	// command and ignore them, but the broadcasts cross the cell under
	// attack load.
	for b := 0; b < 3; b++ {
		off := captureAt + vtime.Duration(int64(captureFor)*int64(b)/3)
		sched.At(at(off), rg.AdvertiseOnce)
	}
}

// closeAttackers winds the actors down during cleanup: taps off,
// sockets closed. Counters stay readable.
func (f *Fleet) closeAttackers() {
	if f.attack == nil {
		return
	}
	for _, th := range f.attack.thieves {
		th.Close()
	}
	f.attack.replayer.Close()
	f.attack.rogue.Close()
}

// provisionAuth equips node idx with its authenticator and registers
// the matching association at the home agent. Two authenticators are
// built from the same key: the node's lives on whatever shard the node
// roams to, the agent's on the hub, and neither shares HMAC state.
func (f *Fleet) provisionAuth(idx int, home ipv4.Addr) *mobileip.Authenticator {
	key := authKeyFor(f.Opts.Seed, idx)
	spi := authSPIFor(idx)
	f.HA.Keys().Provision(home, spi, key)
	return mobileip.NewAuthenticator(spi, key)
}
