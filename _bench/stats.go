package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples, which it sorts in place. It returns 0 for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	return samples[max(rank(p, len(samples)), 1)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The tolerance keeps float error in p/100*n (99.9% of 10000 computes as a
// hair over 9990) from pushing the rank up by one.
func rank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

func median(samples []float64) float64 { return percentile(samples, 50) }

// tailLadder lists the percentiles a timing may report beyond its median,
// highest first.
var tailLadder = []float64{99.9, 99, 90}

// tailPercentile returns the highest percentile of tailLadder that leaves at
// least ten of n samples beyond it (above its nearest rank), and false when
// even p90 does not (n < 100).
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// ledger counts attempted and failed ops. An op fails once however many of
// its checks fail; the first few problems are kept for the report.
type ledger struct {
	attempted int
	failed    int
	problems  []string
}

const keepProblems = 5

// record accounts one op whose checks reported the given problems.
func (l *ledger) record(problems []string) {
	l.attempted++
	if len(problems) == 0 {
		return
	}
	l.failed++
	for _, p := range problems {
		if len(l.problems) < keepProblems {
			l.problems = append(l.problems, p)
		}
	}
}

// errorRate is failed over attempted ops; 0 before any attempt.
func (l *ledger) errorRate() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}
