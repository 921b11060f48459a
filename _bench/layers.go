package main

import "strings"

// The layers a CPU sample's self time is attributed to, named after the
// packages that make them up (README.md maps them onto the ROADMAP's layer
// ladder).
const (
	layerIPv4      = "ipv4"
	layerEncap     = "encap"
	layerTransport = "transport"
	layerSegment   = "netsim.segment"
	layerTrace     = "netsim.trace"
	layerStack     = "stack"
	layerRand      = "rand"
	layerInet      = "inet"
	layerMalloc    = "runtime.malloc"
	layerGC        = "runtime.gc"
	layerSched     = "runtime.sched"
	layerScenario  = "scenario"
	layerMetrics   = "metrics"
	layerMobileIP  = "mobileip"
	layerCrypto    = "crypto"
	layerVtime     = "vtime"
	layerOther     = "other"
)

// allLayers is every layer, in report order; the self times of a profile
// over these add up to its sampled CPU.
var allLayers = []string{
	layerIPv4, layerEncap, layerTransport, layerSegment, layerStack,
	layerRand, layerInet, layerMalloc, layerScenario,
	layerTrace, layerMetrics,
	layerMobileIP, layerCrypto,
	layerVtime,
	layerGC, layerSched, layerOther,
}

// modulePackages maps the reproduction's packages (below mob4x4/internal/)
// to layers. internal/netsim is split by file, see layerOf.
var modulePackages = map[string]string{
	"ipv4":        layerIPv4,
	"encap":       layerEncap,
	"udp":         layerTransport,
	"icmp":        layerTransport,
	"icmphost":    layerTransport,
	"tcplite":     layerTransport,
	"sock":        layerTransport,
	"dnssim":      layerTransport,
	"dhcpsim":     layerTransport,
	"stack":       layerStack,
	"arp":         layerStack,
	"inet":        layerInet,
	"experiments": layerScenario,
	"fleet":       layerScenario,
	"faults":      layerScenario,
	"core":        layerScenario,
	"metrics":     layerMetrics,
	"mobileip":    layerMobileIP,
	"routeopt":    layerMobileIP,
	"vtime":       layerVtime,
}

// Runtime functions that decide the class of the runtime frames below them
// (checked in this order, by name prefix after "runtime."). A runtime
// frame matching none of them is a helper and passes the decision up to
// its caller: memmove under ipv4 code is ipv4's time.
var runtimeClasses = []struct {
	layer    string
	prefixes []string
}{
	{layerGC, []string{
		"gcBgMarkWorker", "gcDrain", "gcAssistAlloc", "gcMark", "gcStart", "gcSweep",
		"gcWriteBarrier", "gcFlushBgCredit", "gcResetMarkState", "(*gcWork)",
		"(*gcControllerState)", "scanobject", "scanblock", "scanstack", "scanframeworker",
		"markroot", "greyobject", "findObject", "wbBufFlush", "bgsweep", "sweepone",
		"(*sweepLocked)", "bgscavenge", "(*scavengerState)", "_GC",
	}},
	{layerMalloc, []string{
		"mallocgc", "newobject", "newarray", "makeslice", "growslice", "makemap",
		"rawbyteslice", "rawstring", "rawruneslice", "nextFreeFast", "heapSetType",
		"(*mcache)", "(*mcentral)", "(*mheap)",
	}},
	{layerSched, []string{
		"schedule", "findRunnable", "park_m", "gopark", "goready", "ready", "mcall",
		"notesleep", "notetsleep", "notewakeup", "stopm", "startm", "wakep", "handoffp",
		"runqsteal", "runqgrab", "stealWork", "netpoll", "sysmon", "execute", "gogo",
		"goexit0", "goexit1", "newproc", "semasleep", "semawakeup", "semacquire",
		"semrelease", "selectgo", "chansend", "chanrecv", "notifyList", "entersyscall",
		"exitsyscall", "gosched", "checkTimers", "(*timers)", "resetspinning",
		"injectglist", "_System",
	}},
}

// frame is one stack frame: a fully qualified function name and its file.
type frame struct {
	fn   string
	file string
}

// packageOf returns the import path of a fully qualified Go function name:
// "mob4x4/internal/stack.(*Host).forward.func1" -> "mob4x4/internal/stack".
// Type arguments are dropped first, since they may hold paths of their own.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// runtimePackage reports whether pkg is part of the Go runtime proper.
func runtimePackage(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/runtime/")
}

// layerOf returns the layer a single frame decides, or "" when the frame
// is a helper (standard library or unclassified runtime code) that leaves
// the decision to its caller.
func layerOf(f frame) string {
	pkg := packageOf(f.fn)
	switch {
	case strings.HasPrefix(pkg, "mob4x4/internal/"):
		name := strings.TrimPrefix(pkg, "mob4x4/internal/")
		if name == "netsim" {
			if strings.HasSuffix(f.file, "/trace.go") || f.file == "trace.go" {
				return layerTrace
			}
			return layerSegment
		}
		if l, ok := modulePackages[name]; ok {
			return l
		}
		return layerOther
	case pkg == "mob4x4" || strings.HasPrefix(pkg, "mob4x4/"), pkg == "main":
		return layerOther // the benchmark's own code and the module's tools
	case pkg == "math/rand" || strings.HasPrefix(pkg, "math/rand/"):
		return layerRand
	case strings.HasPrefix(pkg, "crypto/"):
		return layerCrypto
	case runtimePackage(pkg):
		name := strings.TrimPrefix(f.fn, pkg+".")
		for _, c := range runtimeClasses {
			for _, p := range c.prefixes {
				if strings.HasPrefix(name, p) {
					return c.layer
				}
			}
		}
	}
	return ""
}

// attribute returns the layer of a sampled stack, leaf frame first: the
// first frame that decides a layer wins. A stack of runtime helpers alone
// is scheduler housekeeping; any other undecided stack is "other".
func attribute(stack []frame) string {
	onlyRuntime := len(stack) > 0
	for _, f := range stack {
		if l := layerOf(f); l != "" {
			return l
		}
		onlyRuntime = onlyRuntime && runtimePackage(packageOf(f.fn))
	}
	if onlyRuntime {
		return layerSched
	}
	return layerOther
}
