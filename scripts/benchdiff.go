// Command benchdiff converts `go test -bench` output to JSON and compares
// two such JSON files for performance regressions. It is the repo's
// benchmark gate (wired into `make bench` / `make benchgate` and CI):
//
//	go test -run '^$' -bench . -benchmem ./... | go run ./scripts/benchdiff -parse > BENCH_2026-08-05.json
//	go run ./scripts/benchdiff BENCH_baseline.json BENCH_2026-08-05.json
//
// The comparison fails (exit 1) when a benchmark present in both files
// got more than -ns-tolerance slower in ns/op, or grew allocs/op beyond
// -allocs-tolerance: time is noisy, so it gets a generous band;
// allocation counts are deterministic for single-goroutine benchmarks
// but the fleet storms spawn worker goroutines whose runtime
// bookkeeping jitters counts by a few parts in ten thousand, so allocs
// get a tight relative band (0.1% by default) instead of exact
// equality — small counts (0, 2, 19 allocs/op) still gate exactly,
// since 0.1% of those rounds to nothing.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one `go test -bench` result line. Metrics holds the
// b.ReportMetric custom units (the reproduced paper numbers). Note says
// why a row was added to a baseline without re-pinning the others.
type Benchmark struct {
	Pkg         string             `json:"pkg"`
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	Note        string             `json:"note,omitempty"`
}

// File is the persisted BENCH_<date>.json shape.
type File struct {
	Date       string      `json:"date"`
	Note       string      `json:"note,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	parse := flag.Bool("parse", false, "read `go test -bench` text on stdin, write JSON on stdout")
	note := flag.String("note", "", "free-form note stored in the JSON (parse mode)")
	nsTol := flag.Float64("ns-tolerance", 0.25, "allowed fractional ns/op slowdown before failing (compare mode)")
	allocTol := flag.Float64("allocs-tolerance", 0.001, "allowed fractional allocs/op growth before failing (compare mode)")
	cover := flag.String("cover", "", "gate a `go test -coverprofile` file instead of benchmarks (cover mode)")
	coverFloor := flag.Float64("cover-floor", 0, "minimum total statement coverage percent (cover mode)")
	coverPkgFloors := flag.String("cover-pkg-floor", "", "comma-separated per-package floors, pkg=percent (cover mode)")
	determinism := flag.Bool("determinism", false, "run the runtime determinism gate over every experiment (see determinismdiff.go)")
	detSeeds := flag.String("determinism-seeds", defaultDetSeeds, "comma-separated seeds for the determinism gate")
	detParallel := flag.Int("determinism-parallel", 4, "worker count for the parallel-vs-serial comparison (determinism mode)")
	detShards := flag.String("determinism-shards", "1,2,4", "comma-separated -shards values for the sharded-vs-serial comparison (determinism mode)")
	flag.Parse()

	if *determinism {
		if !runDeterminism(*detSeeds, *detParallel, *detShards) {
			os.Exit(1)
		}
		return
	}

	if *cover != "" {
		pkgFloors, err := parsePkgFloors(*coverPkgFloors)
		if err != nil {
			fatal(err)
		}
		if !coverGate(*cover, *coverFloor, pkgFloors) {
			os.Exit(1)
		}
		return
	}

	if *parse {
		f, err := parseBench(os.Stdin, *note)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(f); err != nil {
			fatal(err)
		}
		return
	}

	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff -parse < bench.txt > out.json")
		fmt.Fprintln(os.Stderr, "       benchdiff [-ns-tolerance F] baseline.json current.json")
		os.Exit(2)
	}
	old, err := readFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	cur, err := readFile(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	if !compare(old, cur, *nsTol, *allocTol) {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

func readFile(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// parseBench reads `go test -bench -benchmem` text. Benchmark names are
// qualified by the preceding "pkg:" line so same-named benchmarks in
// different packages (BenchmarkMarshal) stay distinct.
func parseBench(r *os.File, note string) (*File, error) {
	f := &File{Date: time.Now().UTC().Format("2006-01-02"), Note: note}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		b := Benchmark{Pkg: pkg, Name: trimProcSuffix(fields[0]), Metrics: map[string]float64{}}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // a header or a mangled line, not a result
		}
		b.Iterations = n
		// The rest is (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in line %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				b.Metrics[unit] = v
			}
		}
		if len(b.Metrics) == 0 {
			b.Metrics = nil
		}
		f.Benchmarks = append(f.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found on stdin")
	}
	return f, nil
}

// trimProcSuffix drops the -<GOMAXPROCS> tail go test appends so results
// compare across machines with different core counts.
func trimProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func key(b Benchmark) string { return b.Pkg + "." + b.Name }

// compare prints a per-benchmark delta table and returns false when any
// shared benchmark regressed: ns/op beyond the time tolerance band, or
// allocs/op beyond the (much tighter) allocation band — which is zero
// slack for small counts. Benchmarks present in only one file are
// reported (sorted, so the summary is stable) but never gate: a new
// benchmark has no baseline to regress against, and a removed one is a
// baseline-refresh chore, not a perf fact.
func compare(old, cur *File, nsTol, allocTol float64) bool {
	oldBy := map[string]Benchmark{}
	for _, b := range old.Benchmarks {
		oldBy[key(b)] = b
	}
	var keys, newOnly []string
	curBy := map[string]Benchmark{}
	for _, b := range cur.Benchmarks {
		k := key(b)
		curBy[k] = b
		if _, shared := oldBy[k]; shared {
			keys = append(keys, k)
		} else {
			newOnly = append(newOnly, k)
		}
	}
	var oldOnly []string
	for k := range oldBy {
		if _, ok := curBy[k]; !ok {
			oldOnly = append(oldOnly, k)
		}
	}
	sort.Strings(keys)
	sort.Strings(newOnly)
	sort.Strings(oldOnly)
	if len(keys) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmarks in common; nothing to gate")
		return false
	}

	ok := true
	fmt.Printf("%-55s %15s %15s %8s %12s\n", "benchmark", "old ns/op", "new ns/op", "Δns", "allocs old→new")
	for _, k := range keys {
		o, c := oldBy[k], curBy[k]
		dNs := 0.0
		if o.NsPerOp > 0 {
			dNs = (c.NsPerOp - o.NsPerOp) / o.NsPerOp
		}
		verdict := ""
		if o.NsPerOp > 0 && dNs > nsTol {
			verdict = "  REGRESSION(ns/op)"
			ok = false
		}
		if c.AllocsPerOp > o.AllocsPerOp*(1+allocTol) {
			verdict += "  REGRESSION(allocs/op)"
			ok = false
		}
		fmt.Printf("%-55s %15.0f %15.0f %7.1f%% %6.0f → %-6.0f%s\n",
			k, o.NsPerOp, c.NsPerOp, dNs*100, o.AllocsPerOp, c.AllocsPerOp, verdict)
	}
	for _, k := range newOnly {
		c := curBy[k]
		fmt.Printf("%-55s %15s %15.0f %8s %6s → %-6.0f  new (no baseline; not gated)\n",
			k, "-", c.NsPerOp, "-", "-", c.AllocsPerOp)
	}
	for _, k := range oldOnly {
		o := oldBy[k]
		fmt.Printf("%-55s %15.0f %15s %8s %6.0f → %-6s  missing from current run (not gated)\n",
			k, o.NsPerOp, "-", "-", o.AllocsPerOp, "-")
	}
	if ok {
		fmt.Printf("benchdiff: %d benchmarks within tolerance (ns/op +%.0f%%, allocs/op +%.1f%%); %d new, %d missing\n",
			len(keys), nsTol*100, allocTol*100, len(newOnly), len(oldOnly))
	} else {
		fmt.Println("benchdiff: FAIL — regressions listed above")
	}
	return ok
}
