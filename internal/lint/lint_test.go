package lint_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mob4x4/internal/lint"
)

var update = flag.Bool("update", false, "rewrite the golden files from current analyzer output")

// sharedLoader type-checks the standard library from source once per test
// binary; every test that can share the cache does.
var sharedLoader = sync.OnceValues(func() (*lint.Loader, error) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		return nil, err
	}
	return lint.NewLoader(root)
})

func loader(t *testing.T) *lint.Loader {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	return l
}

// loadFixtureAs loads testdata/src/<name>/<variant> under an explicit
// import path (the path decides which scoping rules apply).
func loadFixtureAs(t *testing.T, l *lint.Loader, name, variant, importPath string) *lint.Package {
	t.Helper()
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", name, variant), importPath)
	if err != nil {
		t.Fatalf("loading %s/%s fixture: %v", name, variant, err)
	}
	return pkg
}

func loadFixture(t *testing.T, name, variant string) *lint.Package {
	t.Helper()
	l := loader(t)
	return loadFixtureAs(t, l, name, variant,
		l.ModulePath+"/internal/lintfixture/"+name+"/"+variant)
}

func format(diags []lint.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "%s:%d:%d: %s [%s]\n",
			filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
	}
	return b.String()
}

// TestAnalyzersGolden runs every analyzer over its bad fixture and
// compares the full diagnostic listing (file:line:col, message, analyzer)
// against the golden file, then checks the clean fixture stays silent.
// Regenerate goldens with: go test ./internal/lint -run Golden -update
func TestAnalyzersGolden(t *testing.T) {
	for _, a := range lint.All() {
		t.Run(a.Name, func(t *testing.T) {
			bad := loadFixture(t, a.Name, "bad")
			got := format(lint.Run([]*lint.Package{bad}, []*lint.Analyzer{a}))
			if got == "" {
				t.Fatalf("analyzer %s reported nothing on its bad fixture", a.Name)
			}
			goldenPath := filepath.Join("testdata", "golden", a.Name+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics differ from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
			}

			clean := loadFixture(t, a.Name, "clean")
			if diags := lint.Run([]*lint.Package{clean}, []*lint.Analyzer{a}); len(diags) != 0 {
				t.Errorf("analyzer %s fired on its clean fixture:\n%s", a.Name, format(diags))
			}
		})
	}
}

// TestDiagnosticPositions pins exact line/column positions for one
// representative diagnostic per analyzer, independent of the golden
// files, plus the total count on the bad fixture.
func TestDiagnosticPositions(t *testing.T) {
	tests := []struct {
		analyzer  string
		wantCount int
		line, col int    // position of the first diagnostic
		contains  string // substring of the first diagnostic's message
	}{
		{"wallclock", 4, 10, 2, "time.Sleep"},
		{"modeswitch", 3, 23, 2, "missing OutDH, OutDT"},
		{"brokencombo", 3, 11, 18, "InDT"},
		{"errcheck", 4, 13, 2, "ParseAddr"},
		{"panicpolicy", 2, 9, 3, "bare panic"},
		{"mapiter", 3, 11, 2, "map iteration order is randomized"},
		{"globalstate", 6, 13, 5, "package-level var seq"},
		{"sharedrand", 17, 7, 8, "5 KB"},
		{"bufretain", 7, 22, 4, "field last"},
		{"shardpin", 7, 27, 28, "reading NICs through the far half"},
	}
	for _, tc := range tests {
		t.Run(tc.analyzer, func(t *testing.T) {
			a, err := lint.ByName(tc.analyzer)
			if err != nil {
				t.Fatal(err)
			}
			bad := loadFixture(t, tc.analyzer, "bad")
			diags := lint.Run([]*lint.Package{bad}, []*lint.Analyzer{a})
			if len(diags) != tc.wantCount {
				t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), tc.wantCount, format(diags))
			}
			first := diags[0]
			if first.Pos.Line != tc.line || first.Pos.Column != tc.col {
				t.Errorf("first diagnostic at %d:%d, want %d:%d (%s)",
					first.Pos.Line, first.Pos.Column, tc.line, tc.col, first.Message)
			}
			if !strings.Contains(first.Message, tc.contains) {
				t.Errorf("first diagnostic %q does not mention %q", first.Message, tc.contains)
			}
			if first.Analyzer != tc.analyzer {
				t.Errorf("diagnostic attributed to %q, want %q", first.Analyzer, tc.analyzer)
			}
		})
	}
}

// TestWallclockScope checks the two scoping rules: the same real-clock
// code is fine outside <module>/internal/, and internal/vtime itself is
// exempt (it is the package that wraps the clock).
func TestWallclockScope(t *testing.T) {
	l := loader(t)
	a, err := lint.ByName("wallclock")
	if err != nil {
		t.Fatal(err)
	}

	outside := loadFixtureAs(t, l, "wallclock", "bad", l.ModulePath+"/lintfixture/wallclockout")
	if diags := lint.Run([]*lint.Package{outside}, []*lint.Analyzer{a}); len(diags) != 0 {
		t.Errorf("wallclock fired outside internal/:\n%s", format(diags))
	}

	// A fresh loader so the fixture can masquerade as the real vtime
	// import path without poisoning the shared cache.
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	asVtime := loadFixtureAs(t, fresh, "wallclock", "bad", fresh.ModulePath+"/internal/vtime")
	if diags := lint.Run([]*lint.Package{asVtime}, []*lint.Analyzer{a}); len(diags) != 0 {
		t.Errorf("wallclock fired on the exempt vtime package path:\n%s", format(diags))
	}
}

// TestRouteOptScope checks that the scoped analyzers actually cover
// internal/routeopt: each bad fixture, loaded as if it were the real
// route-optimization package, must still fire. (A fresh loader per
// masquerade keeps the shared cache clean, like TestWallclockScope.)
func TestRouteOptScope(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hotpathalloc", "bufretain", "globalstate", "sharedrand"} {
		t.Run(name, func(t *testing.T) {
			a, err := lint.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := lint.NewLoader(root)
			if err != nil {
				t.Fatal(err)
			}
			// The hotpathalloc bad fixture imports internal/routeopt, so
			// it cannot itself masquerade as that path; it has a minimal
			// scoped variant without the import.
			variant := "bad"
			if name == "hotpathalloc" {
				variant = "scoped"
			}
			pkg := loadFixtureAs(t, fresh, name, variant, fresh.ModulePath+"/internal/routeopt")
			if diags := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{a}); len(diags) == 0 {
				t.Errorf("%s stayed silent on its %s fixture under the internal/routeopt import path", name, variant)
			}
		})
	}
}

// TestDirectiveSuppression checks //mob4x4vet:allow silences exactly the
// named analyzer at the annotated position: the clean brokencombo
// fixture holds a broken combo under a matching directive (must be
// silent), and the bad fixture holds one under a wrong-name directive
// (must still be flagged — pinned here by count, and by position in the
// golden file).
func TestDirectiveSuppression(t *testing.T) {
	bc, err := lint.ByName("brokencombo")
	if err != nil {
		t.Fatal(err)
	}
	clean := loadFixture(t, "brokencombo", "clean")
	if diags := lint.Run([]*lint.Package{clean}, []*lint.Analyzer{bc}); len(diags) != 0 {
		t.Errorf("matching directive did not suppress brokencombo:\n%s", format(diags))
	}
	bad := loadFixture(t, "brokencombo", "bad")
	if diags := lint.Run([]*lint.Package{bad}, []*lint.Analyzer{bc}); len(diags) != 3 {
		t.Errorf("got %d diagnostics on bad fixture, want 3 (wrong-name directive must not suppress):\n%s",
			len(diags), format(diags))
	}
}

// TestAllowlistMechanism pins the suppression semantics position by
// position on one fixture holding three identical-shape loops: an
// annotated map range (suppressed — exactly that one, at that position),
// an unannotated twin (still flagged), and a well-formed directive over
// a slice range (no matching finding, so the directive itself must be
// reported stale under the staleallow name at the directive's position).
func TestAllowlistMechanism(t *testing.T) {
	l := loader(t)
	a, err := lint.ByName("mapiter")
	if err != nil {
		t.Fatal(err)
	}
	pkg := loadFixtureAs(t, l, "allowlist", "mapiter",
		l.ModulePath+"/internal/lintfixture/mapiter/allowlist")
	diags := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{a})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (one flagged loop + one stale directive):\n%s",
			len(diags), format(diags))
	}
	flagged := diags[0]
	if flagged.Analyzer != "mapiter" || flagged.Pos.Line != 21 || flagged.Pos.Column != 2 {
		t.Errorf("unannotated loop: got %s at %d:%d, want mapiter at 21:2",
			flagged.Analyzer, flagged.Pos.Line, flagged.Pos.Column)
	}
	stale := diags[1]
	if stale.Analyzer != lint.StaleAllowName || stale.Pos.Line != 31 || stale.Pos.Column != 2 {
		t.Errorf("stale directive: got %s at %d:%d, want %s at 31:2",
			stale.Analyzer, stale.Pos.Line, stale.Pos.Column, lint.StaleAllowName)
	}
	if !strings.Contains(stale.Message, "suppresses no mapiter finding") {
		t.Errorf("stale message %q does not say the directive suppresses nothing", stale.Message)
	}
	// The annotated twin at 12:2 must not appear anywhere.
	for _, d := range diags {
		if d.Pos.Line == 12 {
			t.Errorf("annotated loop at line 12 was flagged: %s", d.Message)
		}
	}
}
