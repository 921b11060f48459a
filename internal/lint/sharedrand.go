package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// randStreamTypes are the math/rand and math/rand/v2 types that hold a
// stream's state.
var randStreamTypes = map[string]bool{"Rand": true, "Source": true, "PCG": true, "ChaCha8": true}

// isRandPkg reports whether path is math/rand or math/rand/v2.
func isRandPkg(path string) bool { return path == "math/rand" || path == "math/rand/v2" }

// SharedRand returns the analyzer enforcing per-entity RNG streams in
// internal/*: every consumer of randomness owns a math/rand/v2 *rand.Rand
// derived from (seed, domain, index) — vtime.Stream or
// Scheduler.NewStream — so the draw sequence each entity sees is a pure
// function of the seed, independent of how events from different
// entities interleave. Three shapes break that:
//
//   - the global stream (package-level IntN/Float64/..., v1 or v2),
//   - accessor methods named Rand that hand one entity's stream to
//     another (two consumers of one stream couple their draw sequences
//     to event order),
//   - package-level *rand.Rand / rand.Source / *rand.PCG vars (a
//     process-wide stream shared by every Sim and shard).
//
// It also flags any import of v1 math/rand: each v1 source is a 607-word
// table, about 5 KB and 13 µs to seed, paid by every entity that mints
// one.
func SharedRand() *Analyzer {
	a := &Analyzer{
		Name: "sharedrand",
		Doc:  "no v1 math/rand, no global rand stream, no shared *rand.Rand between entities in internal/*; derive per-entity math/rand/v2 streams from (seed, domain, index) via vtime.Stream or Scheduler.NewStream",
	}
	a.Run = func(pass *Pass) {
		pkg := pass.Pkg
		if !strings.HasPrefix(pkg.Path, pkg.ModulePath+"/internal/") {
			return
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if v, ok := scope.Lookup(name).(*types.Var); ok && isRandStream(v.Type()) {
				pass.Report(v.Pos(),
					"package-level var %s is a process-wide RNG stream shared by every Sim and shard; derive a per-entity stream from (seed, index) instead",
					name)
			}
		}
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				if imp.Path.Value == `"math/rand"` {
					pass.Report(imp.Pos(),
						"math/rand (v1) costs about 5 KB and 13 µs to seed per source; use a math/rand/v2 PCG stream from vtime.Stream or Scheduler.NewStream")
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					checkRandCall(pass, call)
				}
				return true
			})
		}
	}
	return a
}

// checkRandCall flags the two call shapes: a package-level draw from
// math/rand or math/rand/v2 and a module-owned accessor method named Rand
// returning a stream.
func checkRandCall(pass *Pass, call *ast.CallExpr) {
	pkg := pass.Pkg
	fun := call.Fun
	if ix, ok := fun.(*ast.IndexExpr); ok { // rand.N[T](...)
		fun = ix.X
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	// Global stream: every package-level function but the New*
	// constructors draws from (or, v1's Seed, reseeds) the process-global
	// locked stream, coupling the draw to every other goroutine's.
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
			_, isFunc := pkg.Info.Uses[sel.Sel].(*types.Func)
			if path := pn.Imported().Path(); isRandPkg(path) && isFunc && !strings.HasPrefix(sel.Sel.Name, "New") {
				pass.Report(sel.Pos(),
					"rand.%s draws from the process-global %s stream, coupling this draw to every other goroutine; use a per-entity stream derived from (seed, index)",
					sel.Sel.Name, path)
			}
			return
		}
	}
	// Accessor: x.Rand() returning a stream from a module-owned method.
	if sel.Sel.Name != "Rand" {
		return
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Results().Len() != 1 || !isRandStream(sig.Results().At(0).Type()) {
		return
	}
	owner := fn.Pkg()
	if owner == nil || (owner.Path() != pkg.ModulePath &&
		!strings.HasPrefix(owner.Path(), pkg.ModulePath+"/")) {
		return
	}
	pass.Report(sel.Sel.Pos(),
		"%s() hands out another entity's RNG stream; two consumers of one stream couple their draw sequences to event interleaving — derive an owned stream from (seed, index) (Scheduler.NewStream)",
		sel.Sel.Name)
}

// isRandStream reports whether t (or what it points to) is a stream type
// of math/rand or math/rand/v2.
func isRandStream(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && isRandPkg(obj.Pkg().Path()) && randStreamTypes[obj.Name()]
}
