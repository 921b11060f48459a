package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mob4x4/internal/experiments"
)

// TestRejectsBadFlags: settings no experiment can run exit 2 with usage
// before anything runs. -trials -1 used to panic in the fleet fan-out,
// -trials 0 printed a header-only table and exited 0, -model bogus ran
// waypoint under the bogus label, and -nodes 0 fell back to the fleet
// package's own default size, and -cells 500 silently ran 128 cells.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-trials", "-1", "fleet"},
		{"-trials", "0", "chaos"},
		{"-trials", "0", "routeopt"},
		{"-model", "bogus", "fleet"},
		{"-nodes", "0", "fleet"},
		{"-nodes", "-5", "adversary"},
		{"-cells", "0", "fleet"},
		{"-cells", "129", "fleet"},
		{"-metrics", "-metrics-json", "fig1"},
		{"fleet", "-trials", "0"},
		{"nosuchexperiment"},
		{"fig1", "fig2"},
		{},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("mob4x4 %s: exit %d, want 2", strings.Join(args, " "), code)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "usage: mob4x4") {
			t.Errorf("mob4x4 %s: want usage on stderr and nothing on stdout, got stdout %q stderr %q",
				strings.Join(args, " "), stdout.String(), stderr.String())
		}
	}
}

// TestRegistry: names and aliases are unique, every alias resolves to its
// entry, every declared flag exists, and every determinism-gate argument
// list parses and validates with the CLI's flag set.
func TestRegistry(t *testing.T) {
	seen := map[string]bool{"all": true, "report": true}
	for _, e := range experiments.Registry {
		for _, name := range append([]string{e.Name}, e.Aliases...) {
			if seen[name] {
				t.Errorf("name %q registered twice", name)
			}
			seen[name] = true
			if got, ok := experiments.Lookup(name); !ok || got.Name != e.Name {
				t.Errorf("Lookup(%q) = %q, %v; want %q", name, got.Name, ok, e.Name)
			}
		}
		if e.Heading == "" || e.Run == nil {
			t.Errorf("%s: missing heading or Run", e.Name)
		}
		var c cli
		fs := newFlagSet(&c, io.Discard)
		for _, f := range e.Flags {
			if fs.Lookup(f) == nil {
				t.Errorf("%s declares unknown flag -%s", e.Name, f)
			}
		}
		name, err := parse(fs, &c, append(append([]string(nil), e.GateArgs...), e.Name))
		if err != nil || name != e.Name {
			t.Errorf("%s: gate args %q: parsed name %q, error %v", e.Name, e.GateArgs, name, err)
		}
	}
}

// TestHelpListsRegistry: -h exits 0 and lists every flag and every entry
// with its heading.
func TestHelpListsRegistry(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h: exit %d", code)
	}
	help := stderr.String()
	var c cli
	newFlagSet(&c, io.Discard).VisitAll(func(f *flag.Flag) {
		if !strings.Contains(help, "-"+f.Name) {
			t.Errorf("-h does not list -%s", f.Name)
		}
	})
	for _, e := range experiments.Registry {
		if !strings.Contains(help, e.Name) || !strings.Contains(help, e.Heading) {
			t.Errorf("-h does not list %s with its heading %q", e.Name, e.Heading)
		}
	}
}

// TestPcapFiles: under -pcap each capture of a run lands in
// <dir>/<name>.pcap (the directory is created on demand) and stderr
// notes the count; without -pcap nothing is written or noted, and a
// directory that cannot be created exits 1.
func TestPcapFiles(t *testing.T) {
	caps := []experiments.Capture{
		{Name: "httpgrid_Out-IE_In-IE", Pcap: []byte("first capture")},
		{Name: "second", Pcap: []byte("second capture")},
	}

	var stderr bytes.Buffer
	if code := (&cli{}).writeCaptures(caps, &stderr); code != 0 || stderr.Len() != 0 {
		t.Errorf("without -pcap: exit %d, stderr %q", code, stderr.String())
	}
	for _, c := range caps {
		if _, err := os.Stat(c.Name + ".pcap"); !os.IsNotExist(err) {
			t.Errorf("without -pcap: %s.pcap written to the working directory", c.Name)
		}
	}

	dir := filepath.Join(t.TempDir(), "captures")
	if code := (&cli{pcapDir: dir}).writeCaptures(caps, &stderr); code != 0 {
		t.Fatalf("-pcap %s: exit %d, stderr %q", dir, code, stderr.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != len(caps) {
		t.Fatalf("-pcap %s: %d files, error %v; want %d", dir, len(entries), err, len(caps))
	}
	for _, c := range caps {
		got, err := os.ReadFile(filepath.Join(dir, c.Name+".pcap"))
		if err != nil || !bytes.Equal(got, c.Pcap) {
			t.Errorf("%s.pcap = %q, %v; want %q", c.Name, got, err, c.Pcap)
		}
	}
	if want := fmt.Sprintf("mob4x4: wrote 2 capture(s) to %s\n", dir); stderr.String() != want {
		t.Errorf("stderr = %q, want %q", stderr.String(), want)
	}

	stderr.Reset()
	blocked := filepath.Join(dir, "second.pcap", "sub") // a file where a directory must go
	if code := (&cli{pcapDir: blocked}).writeCaptures(caps, &stderr); code != 1 ||
		!strings.Contains(stderr.String(), "write captures") {
		t.Errorf("-pcap %s: exit %d, stderr %q; want exit 1 and the error", blocked, code, stderr.String())
	}
}
