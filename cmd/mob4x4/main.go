// Command mob4x4 runs the reproduction experiments for "Internet Mobility
// 4x4" (Cheshire & Baker, SIGCOMM '96) and prints the tables and paths
// that regenerate each figure.
//
// Run `mob4x4 -h` for the flags and the experiment list; both are
// generated from the experiment registry in internal/experiments. Flags
// may also follow the experiment name (mob4x4 fig10 -metrics). `mob4x4
// all` runs the registry's paper set in order and `mob4x4 report`
// renders the same set as one markdown document.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"mob4x4/internal/experiments"
	"mob4x4/internal/metrics"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// cli is the parsed command line.
type cli struct {
	cfg                             experiments.Config
	metricsText, metricsJSON        bool
	pcapDir, cpuprofile, memprofile string
}

// newFlagSet declares the CLI's flags into c, defaults from
// experiments.DefaultConfig. Usage text that names experiments is
// generated from the registry.
func newFlagSet(c *cli, stderr io.Writer) *flag.FlagSet {
	c.cfg = experiments.DefaultConfig()
	reads := func(flag string) string {
		return names(func(e experiments.Experiment) bool { return e.Reads(flag) })
	}
	fs := flag.NewFlagSet("mob4x4", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Int64Var(&c.cfg.Seed, "seed", c.cfg.Seed, "simulation seed")
	fs.IntVar(&c.cfg.Parallel, "parallel", c.cfg.Parallel, "worker goroutines for independent trials ("+
		names(func(e experiments.Experiment) bool { return e.Parallel })+")")
	fs.IntVar(&c.cfg.Trials, "trials", c.cfg.Trials, "independent trials, seeds seed..seed+N-1 ("+reads("trials")+")")
	fs.IntVar(&c.cfg.Nodes, "nodes", c.cfg.Nodes, "mobile node count ("+reads("nodes")+")")
	fs.IntVar(&c.cfg.Cells, "cells", c.cfg.Cells, "visited cell count ("+reads("cells")+")")
	fs.StringVar(&c.cfg.Model, "model", c.cfg.Model, "movement model, waypoint or markov ("+reads("model")+")")
	fs.IntVar(&c.cfg.Shards, "shards", c.cfg.Shards, "worker goroutines driving the region shards inside one trial; output is byte-identical for any value ("+
		names(func(e experiments.Experiment) bool { return e.Shards })+"; others ignore it)")
	fs.BoolVar(&c.metricsText, "metrics", false, "dump the run's metrics after the experiment ("+
		names(func(e experiments.Experiment) bool { return e.OwnMetrics })+" render their own form)")
	fs.BoolVar(&c.metricsJSON, "metrics-json", false, "like -metrics, as JSON")
	fs.StringVar(&c.pcapDir, "pcap", "", "write the packet captures into `dir` ("+reads("pcap")+")")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the run to `file`")
	fs.StringVar(&c.memprofile, "memprofile", "", "write a pprof heap profile (post-run, after GC) to `file`")
	fs.Usage = func() {
		w := fs.Output()
		fmt.Fprintf(w, "usage: mob4x4 [flags] <experiment> [flags]\n\nflags:\n")
		fs.PrintDefaults()
		fmt.Fprintf(w, "\nexperiments (* = run by all and report):\n")
		for _, e := range experiments.Registry {
			mark, flags := " ", ""
			if e.InAll {
				mark = "*"
			}
			for _, f := range e.Flags {
				flags += " -" + f
			}
			if flags != "" {
				flags = " [" + flags[1:] + "]"
			}
			fmt.Fprintf(w, "  %-12s %s %s%s\n", strings.Join(append([]string{e.Name}, e.Aliases...), ", "), mark, e.Heading, flags)
		}
		fmt.Fprintf(w, "  %-14s every * experiment, in order\n  %-14s every * experiment as one markdown document\n", "all", "report")
	}
	return fs
}

// names lists the registry entries keep selects, slash-separated.
func names(keep func(experiments.Experiment) bool) string {
	var ns []string
	for _, e := range experiments.Registry {
		if keep(e) {
			ns = append(ns, e.Name)
		}
	}
	return strings.Join(ns, "/")
}

// parse reads the flags, the experiment name and any flags after it, and
// validates them. Errors have been reported, with usage, when it returns.
func parse(fs *flag.FlagSet, c *cli, args []string) (string, error) {
	if err := fs.Parse(args); err != nil {
		return "", err
	}
	name := fs.Arg(0)
	if name != "" {
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return "", err
		}
	}
	c.cfg.Metrics = c.metricsText || c.metricsJSON
	err := c.cfg.Validate()
	_, known := experiments.Lookup(name)
	switch {
	case name == "" || fs.NArg() != 0:
		err = errors.New("want exactly one experiment")
	case !known && name != "all" && name != "report":
		err = fmt.Errorf("unknown experiment %q", name)
	case c.metricsText && c.metricsJSON:
		err = errors.New("-metrics and -metrics-json are mutually exclusive")
	}
	if err != nil {
		fmt.Fprintf(fs.Output(), "mob4x4: %v\n", err)
		fs.Usage()
	}
	return name, err
}

// run is the whole command; it returns the exit status: 0, 1 on a failed
// write or a broken invariant, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) (code int) {
	var c cli
	fs := newFlagSet(&c, stderr)
	name, err := parse(fs, &c, args)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	if c.cpuprofile != "" {
		f, err := os.Create(c.cpuprofile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(stderr, "mob4x4: cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if c.memprofile != "" {
		defer func() {
			if err := writeHeapProfile(c.memprofile); err != nil {
				fmt.Fprintf(stderr, "mob4x4: memprofile: %v\n", err)
				code = 1
			}
		}()
	}
	// Every scenario built below registers its registry here; the dump is
	// sorted, so it is deterministic for any worker count.
	var coll metrics.Collector
	if c.cfg.Metrics {
		experiments.SetCollector(&coll)
		defer experiments.SetCollector(nil)
	}
	switch name {
	case "report":
		out := experiments.Report(c.cfg)
		io.WriteString(stdout, out.Text)
		if code := c.writeCaptures(out.Captures, stderr); code != 0 {
			return code
		}
	case "all":
		for _, e := range experiments.Registry {
			if !e.InAll {
				continue
			}
			if code := c.runOne(fs, e, stdout, stderr); code != 0 {
				return code
			}
			fmt.Fprintln(stdout)
		}
	default:
		e, _ := experiments.Lookup(name)
		if code := c.runOne(fs, e, stdout, stderr); code != 0 || e.OwnMetrics {
			return code
		}
	}
	if c.cfg.Metrics {
		if err := writeMetrics(stdout, c.metricsJSON, &coll); err != nil {
			fmt.Fprintf(stderr, "mob4x4: write metrics: %v\n", err)
			return 1
		}
	}
	return 0
}

// runOne runs one entry and prints its text and, under -metrics, its own
// dumps, and writes its captures under -pcap. A broken invariant exits 1
// with a line that reproduces the failing trial from the entry's declared
// flags.
func (c *cli) runOne(fs *flag.FlagSet, e experiments.Experiment, stdout, stderr io.Writer) int {
	out := e.Run(c.cfg)
	io.WriteString(stdout, out.Text)
	if code := c.writeCaptures(out.Captures, stderr); code != 0 {
		return code
	}
	for i := 0; c.cfg.Metrics && i < len(out.Dumps); i++ {
		d := &out.Dumps[i]
		fmt.Fprintf(stdout, "== %s ==\n", d.Label)
		if err := writeMetrics(stdout, c.metricsJSON, d.Metrics); err != nil {
			fmt.Fprintf(stderr, "mob4x4: write metrics: %v\n", err)
			return 1
		}
		io.WriteString(stdout, d.TSV)
	}
	if len(out.Violations) == 0 {
		return 0
	}
	repro := fmt.Sprintf("-seed %d", out.Violations[0].Seed)
	for _, f := range e.Flags {
		if f != "trials" { // the seed already names the failing trial
			repro += fmt.Sprintf(" -%s %s", f, fs.Lookup(f).Value)
		}
	}
	fmt.Fprintf(stderr, "mob4x4: %s invariant violations (reproduce: mob4x4 %s %s)\n", e.Name, repro, e.Name)
	return 1
}

// writeCaptures writes each capture to <-pcap dir>/<name>.pcap, then
// notes on stderr how many it wrote, so stdout stays byte-comparable
// across runs. Without -pcap, or with no captures, it does nothing.
func (c *cli) writeCaptures(caps []experiments.Capture, stderr io.Writer) int {
	if c.pcapDir == "" || len(caps) == 0 {
		return 0
	}
	err := os.MkdirAll(c.pcapDir, 0o755)
	for i := 0; err == nil && i < len(caps); i++ {
		err = os.WriteFile(filepath.Join(c.pcapDir, caps[i].Name+".pcap"), caps[i].Pcap, 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "mob4x4: write captures: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "mob4x4: wrote %d capture(s) to %s\n", len(caps), c.pcapDir)
	return 0
}

// writeMetrics renders a snapshot or the run-wide collector as text or
// indented JSON.
func writeMetrics(w io.Writer, asJSON bool, v interface{ WriteText(io.Writer) error }) error {
	if !asJSON {
		return v.WriteText(w)
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		_, err = w.Write(append(b, '\n'))
	}
	return err
}

// writeHeapProfile writes a post-GC heap profile, so it shows retained
// memory.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}
