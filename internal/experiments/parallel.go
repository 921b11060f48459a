package experiments

import (
	"sync"
	"sync/atomic"
)

// Parallel trial execution. Every experiment in this package is a pure
// function of (scenario options, seed): each trial builds its own Sim,
// scheduler, tracer and RNG, and the only package-level state anywhere in
// the simulator is sync.Pool buffers. Independent trials therefore run
// safely on separate goroutines, and because each worker writes its result
// only at the trial's own index, the assembled slice is identical to what
// the serial loop produces — regardless of worker count or completion
// order. TestParallelGridMatchesSerial pins that equivalence.
//
// Note the virtual clock is untouched: parallelism here is across whole
// simulations, never within one, so determinism per seed is preserved.

// parallelEach runs fn(0) … fn(n-1) across at most workers goroutines.
// workers <= 1 degenerates to the plain serial loop. fn must not touch
// state shared with other trials (each call builds its own Sim).
func parallelEach(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// fanOut returns run(0) … run(n-1), computed on up to workers goroutines
// and in index order for any worker count.
func fanOut[R any](workers, n int, run func(i int) R) []R {
	rows := make([]R, n)
	parallelEach(workers, n, func(i int) { rows[i] = run(i) })
	return rows
}

// runTrials is the seed-per-trial fan-out: trials independent trials,
// seeds seed..seed+trials-1, results in seed order.
func runTrials[R any](seed int64, trials, workers int, run func(seed int64) R) []R {
	return fanOut(workers, trials, func(i int) R { return run(seed + int64(i)) })
}

// RunGridParallel is RunGrid with the 16 cells executed on up to workers
// goroutines. Cell order (and every cell's content) is identical to the
// serial RunGrid for the same seed.
func RunGridParallel(seed int64, workers int) []GridCell {
	combos := allGridCombos()
	return fanOut(workers, len(combos), func(i int) GridCell { return runGridCell(seed, combos[i]) })
}

// RunAdaptiveParallel is RunAdaptive with the start strategies executed on
// up to workers goroutines, results in the serial order.
func RunAdaptiveParallel(seed int64, filtering bool, workers int) []AdaptiveRow {
	names := adaptiveStrategyNames()
	return fanOut(workers, len(names), func(i int) AdaptiveRow { return runAdaptiveStrategy(seed, filtering, names[i]) })
}

// RunDurabilityParallel runs the home-address and temporary-address E11
// trials concurrently and returns them in the usual [home, temporary]
// order.
func RunDurabilityParallel(seed int64, moves, workers int) []DurabilityResult {
	return fanOut(workers, 2, func(i int) DurabilityResult { return RunDurability(seed, i == 0, moves) })
}

// RunWebBrowseParallel runs the Mobile-IP and Out-DT Row-D trials
// concurrently, returned in [mobileip, out-dt] order.
func RunWebBrowseParallel(seed int64, n, workers int) []WebBrowseResult {
	return fanOut(workers, 2, func(i int) WebBrowseResult { return RunWebBrowse(seed, n, i == 0) })
}
