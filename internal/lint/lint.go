// Package lint is a repo-specific static-analysis suite for the mob4x4
// reproduction. It machine-checks the invariants the paper's claims rest
// on but the Go compiler cannot see:
//
//   - wallclock: the simulation is deterministic only while every timing
//     decision flows through the internal/vtime virtual clock; any
//     time.Now/time.Sleep in internal/* silently breaks reproducibility.
//   - modeswitch: the 4x4 grid machinery (core.OutMode, core.InMode) is
//     exhaustively handled — a switch over a Num-sentinel enum that
//     silently ignores a constant is exactly how a new mode rots.
//   - brokencombo: no code path constructs one of the six dark-shaded
//     broken grid cells of Figure 10 as a constant combination.
//   - errcheck: error returns from this module's own functions are never
//     dropped on the floor.
//   - panicpolicy: library code never calls bare panic; invariants go
//     through internal/assert and input errors are returned.
//   - hotpathalloc: the packet datapath (internal/netsim, internal/stack,
//     internal/encap and the other packages in hotpathallocPkgs) never
//     calls the allocating Marshal/Clone codecs;
//     the zero-allocation fast path uses AppendMarshal and AppendEncap
//     with pooled buffers, and deliberate retention points are annotated.
//
// The determinism-and-shard-safety half of the suite machine-checks the
// invariants the sharded multi-core engine will assume (see DESIGN.md
// "Determinism contract"):
//
//   - mapiter: no map iteration order leaks into schedules, exports or
//     reports — every `for range` over a map in the export/report/
//     scheduling packages either feeds a sort or is annotated as an
//     order-insensitive sink.
//   - globalstate: shard-candidate packages hold no package-level mutable
//     state; deliberate process-wide state (sync.Pool, leak counters)
//     carries an annotation with a written justification.
//   - sharedrand: no v1 math/rand, no global rand stream and no sharing
//     of one *rand.Rand between entities — every consumer owns a
//     math/rand/v2 stream derived from (seed, domain, index) so draws are
//     independent of event interleaving.
//   - bufretain: receive callbacks never retain a pooled frame payload
//     (field store, channel send, deferred closure) past their return —
//     the netsim.GetBuf/PutBuf ownership contract, checked.
//   - shardpin: the far half of a split segment belongs to another
//     shard's event loop — code in internal/{netsim,fleet} may nil-check
//     the RemotePeer reference or hand it to the peer's delivery queue
//     (Scheduler.SendTo), never dereference it or pin it into local
//     state behind the owning shard's back.
//
// The suite is built only on go/parser, go/types and go/importer so the
// module stays dependency-free. cmd/mob4x4vet is the command-line driver;
// the package's own tests run the suite over the repository itself, so
// `go test ./...` fails on any new violation. Unused //mob4x4vet:allow
// directives are themselves reported (staleallow) so suppressions cannot
// outlive the code they excused.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// A Diagnostic is one analyzer finding at a resolved source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// An Analyzer checks one invariant over one type-checked package.
type Analyzer struct {
	// Name is the short identifier used in diagnostics and in
	// //mob4x4vet:allow directives.
	Name string
	// Doc is a one-line description of the invariant the analyzer
	// encodes.
	Doc string
	// RequireReason makes a bare "//mob4x4vet:allow <name>" directive
	// insufficient: the directive must carry a justification string or
	// it suppresses nothing (and is reported as stale).
	RequireReason bool
	// Run inspects pass.Pkg and reports findings via pass.Report.
	Run func(pass *Pass)
}

// All returns the full suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Wallclock(),
		ModeSwitch(),
		BrokenCombo(),
		ErrCheck(),
		PanicPolicy(),
		HotPathAlloc(),
		MapIter(),
		GlobalState(),
		SharedRand(),
		BufRetain(),
		ShardPin(),
	}
}

// ByName returns the analyzer with the given name.
func ByName(name string) (*Analyzer, error) {
	for _, a := range All() {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("lint: unknown analyzer %q", name)
}

// A Pass is one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
	used  map[*directive]bool
}

// Report records a finding at pos unless a //mob4x4vet:allow directive for
// this analyzer covers the position (same line, or the line above). A
// directive that suppresses a finding is marked used; directives that
// suppress nothing across a whole Run are themselves reported as stale.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if d := p.Pkg.allowing(p.Analyzer, position); d != nil {
		if p.used != nil {
			p.used[d] = true
		}
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// StaleAllowName is the analyzer name stale-directive diagnostics are
// attributed to. It is a meta-check of Run itself, not a member of All():
// an //mob4x4vet:allow directive that names an analyzer included in the
// run but suppresses none of its findings is dead weight — usually a
// leftover from fixed code — and keeping it would hide the next real
// violation at that position.
const StaleAllowName = "staleallow"

// Run applies each analyzer to each package and returns all findings
// sorted by position, including staleallow findings for allow directives
// that name a ran analyzer yet suppressed nothing.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	used := make(map[*directive]bool)
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags, used: used}
			a.Run(pass)
		}
	}
	byName := make(map[string]*Analyzer, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	for _, pkg := range pkgs {
		for _, d := range pkg.directiveList() {
			a, ran := byName[d.name]
			if !ran || used[d] {
				continue
			}
			msg := fmt.Sprintf("stale //mob4x4vet:allow %s directive: it suppresses no %s finding; delete it", d.name, d.name)
			if a.RequireReason && d.reason == "" {
				msg = fmt.Sprintf("//mob4x4vet:allow %s requires a justification string (\"//mob4x4vet:allow %s <why this is safe>\"); a bare directive suppresses nothing", d.name, d.name)
			}
			diags = append(diags, Diagnostic{Pos: d.pos, Analyzer: StaleAllowName, Message: msg})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// directivePrefix introduces a suppression comment:
//
//	//mob4x4vet:allow <analyzer> [reason]
//
// placed on the flagged line or the line immediately above it. The reason
// is free text for the reviewer (mandatory for analyzers with
// RequireReason set); the analyzer name must match exactly.
const directivePrefix = "//mob4x4vet:allow"

// A directive is one parsed //mob4x4vet:allow comment.
type directive struct {
	name   string // the analyzer the directive names
	reason string // free-text justification after the name ("" if absent)
	pos    token.Position
}

// allowing returns the directive suppressing analyzer findings at pos,
// or nil. A directive missing a required justification never matches.
func (pkg *Package) allowing(a *Analyzer, pos token.Position) *directive {
	pkg.ensureDirectives()
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range pkg.directives[directiveKey{pos.Filename, line}] {
			if d.name == a.Name && !(a.RequireReason && d.reason == "") {
				return d
			}
		}
	}
	return nil
}

// directiveList returns every parsed directive in the package, in file
// order (the order collectDirectives encountered them).
func (pkg *Package) directiveList() []*directive {
	pkg.ensureDirectives()
	return pkg.directiveOrder
}

func (pkg *Package) ensureDirectives() {
	if pkg.directives == nil {
		pkg.directives, pkg.directiveOrder = collectDirectives(pkg.Fset, pkg.Files)
	}
}

type directiveKey struct {
	file string
	line int
}

func collectDirectives(fset *token.FileSet, files []*ast.File) (map[directiveKey][]*directive, []*directive) {
	out := make(map[directiveKey][]*directive)
	var order []*directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				p := fset.Position(c.Pos())
				d := &directive{
					name:   fields[0],
					reason: strings.Join(fields[1:], " "),
					pos:    p,
				}
				k := directiveKey{p.Filename, p.Line}
				out[k] = append(out[k], d)
				order = append(order, d)
			}
		}
	}
	return out, order
}
