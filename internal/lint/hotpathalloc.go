package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// hotpathallocMethods are the copying codec entry points, mapped to what
// the pooled fast path uses instead (AppendMarshal writes into a
// caller-provided buffer, as does the codecs' only encapsulation method,
// AppendEncap); a call to the allocating form inside a datapath package is either a leftover
// from before the fast path existed or a deliberate retention point that
// deserves an annotation explaining itself.
var hotpathallocMethods = map[string]string{
	"Marshal": "AppendMarshal into a pooled buffer (netsim.GetBuf/PutBuf)",
	"Clone":   "borrowing the original within the callback, or a pooled copy",
}

// hotpathallocPkgs are the per-packet datapath packages: every packet in
// every experiment crosses them, so a fresh []byte per call here is a
// fresh allocation per simulated packet. internal/mobileip is on the
// list because registration processing runs once per handoff and a
// fleet-scale storm performs tens of thousands of handoffs per trial;
// internal/fleet because its workload ticker fires once per node per
// simulated second; internal/icmphost because every ping, echo reply and
// router error of the fleet's workload passes through it.
var hotpathallocPkgs = map[string]bool{
	"internal/netsim":   true,
	"internal/stack":    true,
	"internal/encap":    true,
	"internal/mobileip": true,
	"internal/fleet":    true,
	"internal/pcap":     true,
	"internal/routeopt": true,
	"internal/icmphost": true,
}

// HotPathAlloc returns the analyzer keeping allocating codec calls out of
// the packet datapath. Sites that must allocate carry a
// //mob4x4vet:allow hotpathalloc directive stating why.
func HotPathAlloc() *Analyzer {
	a := &Analyzer{
		Name: "hotpathalloc",
		Doc:  "no allocating Marshal/Clone calls in the packet datapath (internal/netsim, internal/stack, internal/encap, internal/mobileip, internal/fleet, internal/pcap, internal/routeopt, internal/icmphost); use the Append* forms with pooled buffers",
	}
	a.Run = func(pass *Pass) {
		pkg := pass.Pkg
		rel := strings.TrimPrefix(pkg.Path, pkg.ModulePath+"/")
		if !hotpathallocPkgs[rel] &&
			!strings.HasPrefix(pkg.Path, pkg.ModulePath+"/internal/lintfixture/hotpathalloc/") {
			return
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fix, hot := hotpathallocMethods[sel.Sel.Name]
				if !hot {
					return true
				}
				fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Type().(*types.Signature).Recv() == nil {
					return true // not a method call (or a package-level func)
				}
				owner := fn.Pkg()
				if owner == nil || (owner.Path() != pkg.ModulePath &&
					!strings.HasPrefix(owner.Path(), pkg.ModulePath+"/")) {
					return true // methods from outside the module are not ours to police
				}
				pass.Report(sel.Sel.Pos(),
					"%s allocates a fresh buffer per packet on the datapath; prefer %s, or annotate the retention point",
					sel.Sel.Name, fix)
				return true
			})
		}
	}
	return a
}
