package metrics

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Collector gathers registries from many scenarios (one per Sim) so
// cmd/mob4x4 can dump every run's metrics after an experiment finishes.
// Registration is the only concurrent operation — parallel experiment
// workers build scenarios simultaneously — so it takes a mutex; reads
// happen after all workers join. Output is sorted by (label, content)
// so worker count and completion order never change a dump.
type Collector struct {
	mu      sync.Mutex
	entries []collectorEntry
}

type collectorEntry struct {
	label string
	reg   *Registry
}

// Register adds a registry under a human-readable label (typically
// "seed=N" or an experiment-specific cell label).
func (c *Collector) Register(label string, reg *Registry) {
	if c == nil || reg == nil {
		return
	}
	c.mu.Lock()
	c.entries = append(c.entries, collectorEntry{label: label, reg: reg})
	c.mu.Unlock()
}

// snapshotAll snapshots every registered registry and sorts by label,
// breaking ties by serialized content.
func (c *Collector) snapshotAll() []LabeledSnapshot {
	c.mu.Lock()
	entries := append([]collectorEntry(nil), c.entries...)
	c.mu.Unlock()
	out := make([]LabeledSnapshot, 0, len(entries))
	for _, e := range entries {
		out = append(out, LabeledSnapshot{Label: e.label, Snap: e.reg.Snapshot()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Label != out[j].Label {
			return out[i].Label < out[j].Label
		}
		return string(out[i].Snap.JSON()) < string(out[j].Snap.JSON())
	})
	return out
}

// LabeledSnapshot pairs a snapshot with its registration label.
type LabeledSnapshot struct {
	Label string   `json:"label"`
	Snap  Snapshot `json:"snapshot"`
}

// WriteText dumps every registered registry as text, each under a
// "== label ==" header.
func (c *Collector) WriteText(w io.Writer) error {
	for _, ls := range c.snapshotAll() {
		if _, err := io.WriteString(w, "== "+ls.Label+" ==\n"); err != nil {
			return err
		}
		if err := ls.Snap.WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

// Snapshots returns the sorted labeled snapshots.
func (c *Collector) Snapshots() []LabeledSnapshot { return c.snapshotAll() }

// MarshalJSON renders the collector as its Snapshots.
func (c *Collector) MarshalJSON() ([]byte, error) { return json.Marshal(c.snapshotAll()) }
