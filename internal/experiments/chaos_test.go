package experiments

import (
	"os"
	"reflect"
	"strconv"
	"testing"

	"mob4x4/internal/netsim"
)

// smokeSeed is the seed of the seeded smoke tests (chaos, fleet,
// adversary, routeopt): 1, or SEED from the environment, so a failure
// reproduces with `make smoke SEED=<n>`.
func smokeSeed(t *testing.T) int64 {
	if s := os.Getenv("SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SEED %q: %v", s, err)
		}
		return v
	}
	return 1
}

// TestChaosInvariants is the headline robustness check: one full chaos
// trial must heal completely — no invariant violations, no timer leaks,
// and (serial-only check) the pooled frame buffers balance at quiescence.
func TestChaosInvariants(t *testing.T) {
	seed := smokeSeed(t)
	base := netsim.BufOutstanding()
	r := RunChaos(seed)
	for _, v := range r.Violations {
		t.Errorf("seed %d: %s (reproduce: make smoke SEED=%d)", seed, v, seed)
	}
	// Buffer balance: only valid serially — sync.Pool is process-wide, so
	// parallel trials elsewhere would skew the delta.
	if d := netsim.BufOutstanding() - base; d != 0 {
		t.Errorf("seed %d: %d pooled buffers outstanding at quiescence (reproduce: make smoke SEED=%d)", seed, d, seed)
	}
	if r.TCPEchoes == 0 || r.ProbesSent == 0 {
		t.Errorf("seed %d: workloads idle (echoes=%d probes=%d)", seed, r.TCPEchoes, r.ProbesSent)
	}
	if len(r.FaultLog) == 0 {
		t.Errorf("seed %d: empty fault log", seed)
	}
}

// TestChaosDeterministicAcrossRuns pins byte-reproducibility: two runs of
// the same seed produce identical results, including the fault log.
func TestChaosDeterministicAcrossRuns(t *testing.T) {
	seed := smokeSeed(t)
	a := RunChaos(seed)
	b := RunChaos(seed)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seed %d: same-seed runs diverged (reproduce: make smoke SEED=%d)\nrun1: %+v\nrun2: %+v", seed, seed, a, b)
	}
	if c := RunChaos(seed + 1); reflect.DeepEqual(stripSeed(a), stripSeed(c)) {
		t.Errorf("seed %d and %d produced identical results (RNG not wired?)", seed, seed+1)
	}
}

func stripSeed(r ChaosResult) ChaosResult {
	r.Seed = 0
	return r
}

// TestChaosParallelMatchesSerial pins worker-count independence: the
// parallel runner must produce byte-identical results for any worker
// count, trial by trial.
func TestChaosParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial chaos soak")
	}
	seed := smokeSeed(t)
	const trials = 3
	serial := RunChaosParallel(seed, trials, 1)
	for _, workers := range []int{2, 4} {
		par := RunChaosParallel(seed, trials, workers)
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("workers=%d diverged from serial (reproduce: make smoke SEED=%d)", workers, seed)
		}
	}
	for i := range serial {
		if len(serial[i].Violations) != 0 {
			t.Errorf("seed %d: violations: %v", serial[i].Seed, serial[i].Violations)
		}
	}
}

// TestChaosTableRenders keeps the CLI renderer from bit-rotting.
func TestChaosTableRenders(t *testing.T) {
	r := ChaosResult{Seed: 9, TCPEchoes: 5, Violations: []string{"x"}, FaultLog: []string{"1 y"}}
	out := ChaosTable([]ChaosResult{r})
	for _, want := range []string{"E13", "VIOLATION: x", "fault log", "1 y"} {
		if !contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
