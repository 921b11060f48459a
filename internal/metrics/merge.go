package metrics

import (
	"sort"

	"mob4x4/internal/assert"
)

// Merge folds src into r. The sharded engine gives every region Sim its
// own Registry — updated single-threaded from inside that region's event
// loop, no locks — and the measurement phase merges them into one
// cluster-wide view once the workers have joined:
//
//   - Counters (static families, drop causes, named counters and what
//     src's sources report) sum.
//   - Gauge levels sum. Every level is read from a source's state (a
//     binding-table size, a registered flag), so the levels of disjoint
//     regions are disjoint contributions to the cluster level. r keeps
//     the merged levels and reports them in its own snapshots.
//   - Histograms merge bucket-wise, which is exact — bucket counts and
//     sums are commutative monoids — so quantiles computed after the
//     merge equal those of a single-registry run over the same
//     observations. Matching names must use identical bounds.
//
// Names present only in src are created in r; they are visited in
// sorted order so instrument creation stays deterministic. src is left
// untouched, and its sources stay with it.
func (r *Registry) Merge(src *Registry) {
	r.IPSent.Add(src.IPSent.Value())
	r.IPForwarded.Add(src.IPForwarded.Value())
	r.IPDelivered.Add(src.IPDelivered.Value())
	r.LinkFrames.Add(src.LinkFrames.Value())
	r.LinkBytes.Add(src.LinkBytes.Value())
	r.Encaps.Add(src.Encaps.Value())
	r.Decaps.Add(src.Decaps.Value())
	r.TunnelForwards.Add(src.TunnelForwards.Value())
	for c := 0; c < NumDropCauses; c++ {
		r.drops[c].Add(src.drops[c].Value())
	}
	named := src.named()
	for _, name := range sortedKeys(named.counters) {
		r.Counter(name).Add(named.counters[name])
	}
	if r.levels == nil {
		r.levels = make(map[string]int64)
	}
	for _, name := range sortedKeys(named.levels) {
		r.levels[name] += named.levels[name]
	}
	for _, name := range sortedKeys(src.histograms) {
		sh := src.histograms[name]
		dh := r.Histogram(name, sh.bounds)
		if len(dh.bounds) != len(sh.bounds) {
			assert.Unreachable("metrics: Merge of histogram %q with mismatched bounds (%d vs %d)",
				name, len(dh.bounds), len(sh.bounds))
		}
		for i, b := range sh.bounds {
			if dh.bounds[i] != b {
				assert.Unreachable("metrics: Merge of histogram %q with mismatched bounds", name)
			}
		}
		for i, c := range sh.counts {
			dh.counts[i] += c
		}
		dh.sum += sh.sum
		dh.n += sh.n
	}
}

// sortedKeys returns m's keys in lexical order (deterministic merge
// visitation).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
