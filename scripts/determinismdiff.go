package main

// determinismdiff is the runtime determinism gate (same binary as
// benchdiff, selected with -determinism): it builds ./cmd/mob4x4 once and
// runs every entry of the experiment registry (internal/experiments)
// twice per seed with the entry's GateArgs, once more under -parallel N
// when the entry fans trials out over worker goroutines, and once per
// -shards value when it is under the sharded-engine contract. The full
// stdout of each run (tables, metrics dumps, report JSON, chaos TSV
// series) is SHA-256 hashed; any pair of hashes that should match and
// does not is a determinism violation and the gate exits 1. This is the
// dynamic counterpart to the mapiter/globalstate/sharedrand/bufretain
// analyzers: the analyzers prove the sources of nondeterminism are
// absent, this proves the composed system actually emits byte-identical
// output per seed, worker count included.
//
// Runs inside one build agreeing says nothing about a change that moves
// every run alike, so the hash of each (experiment, seed) row at the
// default seeds is also committed in pinnedHashes, and the gate fails
// when a row there is missing or differs. A change that moves a hash on
// purpose edits its row and says why.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"mob4x4/internal/experiments"
)

// defaultDetSeeds are the gate's default seeds, the ones whose rows
// pinnedHashes holds.
const defaultDetSeeds = "1,7"

// pinnedHashes holds the committed full SHA-256 of every (experiment,
// seed) row at the default seeds, one "<experiment> <seed> <sha256>" line
// each; blank lines and lines starting with # are ignored.
const pinnedHashes = "scripts/determinism.sha256"

// runDeterminism executes the gate; it returns false on any divergence,
// run failure, or disagreement with pinnedHashes.
func runDeterminism(seedList string, parallel int, shardList string) bool {
	seeds, err := parseSeeds(seedList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "determinism:", err)
		return false
	}
	pinnedSeeds, _ := parseSeeds(defaultDetSeeds)
	pinned, err := readPinned(pinnedHashes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "determinism:", err)
		return false
	}
	shardCounts, err := parseSeeds(shardList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "determinism: -determinism-shards:", err)
		return false
	}

	tmp, err := os.MkdirTemp("", "mob4x4-determinism-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "determinism:", err)
		return false
	}
	defer os.RemoveAll(tmp)
	bin := filepath.Join(tmp, "mob4x4")
	build := exec.Command("go", "build", "-o", bin, "./cmd/mob4x4")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "determinism: build ./cmd/mob4x4:", err)
		return false
	}

	// One row per registry entry, with the entry's own arguments, plus
	// the report document. Every entry that can dump metrics does, so the
	// hash covers counters and histograms, not just the human tables.
	ok := true
	for _, e := range append(slices.Clip(experiments.Registry), experiments.Experiment{Name: "report"}) {
		for _, seed := range seeds {
			// Two plain runs, then the worker-count variants; every run
			// must hash like the first.
			variants := [][]string{nil, nil}
			status := "run-to-run ok"
			if e.Parallel && parallel > 1 {
				variants = append(variants, []string{"-parallel", strconv.Itoa(parallel)})
				status = fmt.Sprintf("run-to-run and -parallel %d ok", parallel)
			}
			if e.Shards {
				for _, n := range shardCounts {
					variants = append(variants, []string{"-shards", strconv.FormatInt(n, 10)})
				}
				status += fmt.Sprintf(", -shards {%s} ok", shardList)
			}
			first := ""
			for i, v := range variants {
				args := append([]string{"-seed", strconv.FormatInt(seed, 10)}, v...)
				h, err := hashRun(bin, append(append(args, e.GateArgs...), e.Name))
				if err == nil && i > 0 && h != first {
					err = fmt.Errorf("output diverged from serial run 1 (%s != %s)", h[:12], first[:12])
				}
				if err != nil {
					label := strings.Join(v, " ")
					if v == nil {
						label = fmt.Sprintf("serial run %d", i+1)
					}
					fmt.Fprintf(os.Stderr, "determinism: FAIL %s seed=%d %s: %v\n", e.Name, seed, label, err)
					ok, first = false, ""
					break
				}
				first = h
			}
			key := fmt.Sprintf("%s %d", e.Name, seed)
			want, pin := pinned[key], slices.Contains(pinnedSeeds, seed)
			delete(pinned, key)
			switch {
			case first == "":
			case pin && want != first:
				fmt.Fprintf(os.Stderr, "determinism: FAIL %s seed=%d: output hash %s, committed %q in %s "+
					"(if the change is intended, commit the row \"%s %s\" and say why)\n",
					e.Name, seed, first, want, pinnedHashes, key, first)
				ok = false
			case pin:
				fmt.Printf("determinism: %-12s seed=%-3d %s (%s, matches %s)\n", e.Name, seed, first[:12], status, pinnedHashes)
			default:
				fmt.Printf("determinism: %-12s seed=%-3d %s (%s)\n", e.Name, seed, first[:12], status)
			}
		}
	}
	// A row left over names an (experiment, seed) pair this run should
	// have produced and did not: the experiment left the registry.
	var stale []string
	for key := range pinned {
		_, seed, _ := strings.Cut(key, " ")
		if n, err := strconv.ParseInt(seed, 10, 64); err == nil && slices.Contains(seeds, n) {
			stale = append(stale, key)
		}
	}
	slices.Sort(stale)
	for _, key := range stale {
		fmt.Fprintf(os.Stderr, "determinism: FAIL row %q in %s names no registry entry\n", key, pinnedHashes)
		ok = false
	}
	return ok
}

// readPinned parses pinnedHashes into a map from "<experiment> <seed>"
// to the full hex SHA-256.
func readPinned(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	pinned := map[string]string{}
	for n, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 3 || len(f[2]) != 2*sha256.Size {
			return nil, fmt.Errorf("%s:%d: want \"<experiment> <seed> <sha256>\", got %q", path, n+1, line)
		}
		pinned[f[0]+" "+f[1]] = f[2]
	}
	return pinned, nil
}

// hashRun executes the experiment binary with args and returns the
// SHA-256 of its stdout. stderr passes through for diagnosis; a non-zero
// exit is an error (the invariant checkers inside chaos/fleet exit 1 on
// violations, which the gate must surface, not hash over).
func hashRun(bin string, args []string) (string, error) {
	cmd := exec.Command(bin, args...)
	h := sha256.New()
	cmd.Stdout = h
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

func parseSeeds(list string) ([]int64, error) {
	var seeds []int64
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		s, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %v", part, err)
		}
		seeds = append(seeds, s)
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("no seeds in %q", list)
	}
	return seeds, nil
}
