package main

import (
	"errors"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// layerOfPackage is the reviewed package → layer table the simulator CPU
// profile is attributed through. It must name every internal package the
// simulator imports (TestLayerTableCoversSimulator); a package missing from
// it lands in the unattributed bucket instead of silently shifting another
// layer's share.
var layerOfPackage = map[string]string{
	"uopsim/internal/pipeline":  "pipeline",
	"uopsim/internal/bpred":     "bpred",
	"uopsim/internal/fetch":     "fetch",
	"uopsim/internal/uopcache":  "uopcache",
	"uopsim/internal/decode":    "decode",
	"uopsim/internal/loopcache": "loopcache",
	"uopsim/internal/uopq":      "uopq",
	"uopsim/internal/backend":   "backend",
	"uopsim/internal/mem":       "mem",
	"uopsim/internal/cache":     "mem",
	"uopsim/internal/program":   "program",
	"uopsim/internal/workload":  "program",
	"uopsim/internal/rng":       "program",
	"uopsim/internal/isa":       "program",
	"uopsim/internal/trace":     "program",
	"uopsim/internal/power":     "power",
	"uopsim/internal/stats":     "stats",
}

// runtimeBuckets splits Go runtime frames into garbage collection,
// allocation and memory copying by function-name prefix; the longest
// matching prefix wins.
var runtimeBuckets = map[string]string{
	"runtime.gc":                "gc",
	"runtime.(*gcWork)":         "gc",
	"runtime.(*gcBits)":         "gc",
	"runtime.scanobject":        "gc",
	"runtime.scanblock":         "gc",
	"runtime.scanstack":         "gc",
	"runtime.scanframeworker":   "gc",
	"runtime.greyobject":        "gc",
	"runtime.findObject":        "gc",
	"runtime.markroot":          "gc",
	"runtime.markBits":          "gc",
	"runtime.(*mspan).sweep":    "gc",
	"runtime.(*sweepLocked)":    "gc",
	"runtime.sweepone":          "gc",
	"runtime.bgsweep":           "gc",
	"runtime.bgscavenge":        "gc",
	"runtime.wbBuf":             "gc",
	"runtime.bulkBarrier":       "gc",
	"runtime.wbMove":            "gc",
	"runtime.mallocgc":          "alloc",
	"runtime.newobject":         "alloc",
	"runtime.newarray":          "alloc",
	"runtime.makeslice":         "alloc",
	"runtime.makemap":           "alloc",
	"runtime.growslice":         "alloc",
	"runtime.nextFreeFast":      "alloc",
	"runtime.heapSetType":       "alloc",
	"runtime.heapBitsSetType":   "alloc",
	"runtime.(*mcache)":         "alloc",
	"runtime.(*mcentral)":       "alloc",
	"runtime.(*mheap)":          "alloc",
	"runtime.(*mspan).nextFree": "alloc",
	"runtime.(*mspan).init":     "alloc",
	"runtime.memmove":           "copy",
	"runtime.duffcopy":          "copy",
	"runtime.duffzero":          "copy",
	"runtime.memclr":            "copy",
	"runtime.typedmemmove":      "copy",
	"runtime.typedslicecopy":    "copy",
	"runtime.typedmemclr":       "copy",
	"runtime.memequal":          "copy",
}

// frameLayer classifies one function name: a simulator layer, a runtime
// bucket ("runtime.gc" etc.), "harness" for the benchmark's own code,
// "unattributed" for a repo package missing from the table, or "" for a
// frame that defers to its caller (other standard-library or runtime code,
// such as a map lookup, is charged to whoever called it).
func frameLayer(fn string) string {
	if strings.HasPrefix(fn, "runtime.") {
		best := ""
		for prefix := range runtimeBuckets {
			if strings.HasPrefix(fn, prefix) && len(prefix) > len(best) {
				best = prefix
			}
		}
		if best != "" {
			return "runtime." + runtimeBuckets[best]
		}
		return ""
	}
	if strings.HasPrefix(fn, "main.") {
		return "harness"
	}
	if !strings.HasPrefix(fn, "uopsim") {
		return ""
	}
	if l, ok := layerOfPackage[funcPackage(fn)]; ok {
		return l
	}
	return "unattributed"
}

// stackLayer charges one sample, stack leaf first, to the first classified
// frame. Runtime work is charged to its bucket only when the code that
// caused it is the simulator's; the benchmark's own work (its digests, say)
// and its allocations go to harness, as do samples with no classified
// frame at all (the scheduler, signal handling).
func stackLayer(stack []string) string {
	rt := ""
	for _, fn := range stack {
		switch l := frameLayer(fn); {
		case l == "":
		case strings.HasPrefix(l, "runtime."):
			if rt == "" {
				rt = l
			}
		case l == "harness":
			return l
		case rt != "":
			return rt
		default:
			return l
		}
	}
	if rt != "" {
		return rt // a runtime goroutine, such as a background GC worker
	}
	return "harness"
}

// funcPackage strips a qualified Go function name to its import path:
// "uopsim/internal/bpred.(*TAGE).Predict" → "uopsim/internal/bpred".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// attributeProfile splits the CPU profile at path across the simulator
// layers and normalises by the simulated work the profile covered.
func attributeProfile(path string, w simWork, rep *report) error {
	samples, err := profileSamples(path)
	if err != nil {
		return err
	}
	ns := map[string]float64{}
	for _, s := range samples {
		ns[stackLayer(s.stack)] += float64(s.nanos)
	}
	kinst := float64(w.insts) / 1000
	n := len(samples)
	for _, l := range simLayers {
		rep.set(l+".host_ns_per_kinst", ratio(ns[l], kinst), n)
	}
	for _, b := range []string{"gc", "alloc", "copy"} {
		rep.set("runtime."+b+"_ns_per_kinst", ratio(ns["runtime."+b], kinst), n)
	}
	rep.set("unattributed.host_ns_per_kinst", ratio(ns["unattributed"], kinst), n)
	rep.set("harness.host_ns_per_kinst", ratio(ns["harness"], kinst), n)
	rep.set("bpred.host_ns_per_lookup", ratio(ns["bpred"], float64(w.tageLookups)), n)
	rep.set("fetch.host_ns_per_pw", ratio(ns["fetch"], float64(w.pwBuilt)), n)
	rep.set("uopcache.host_ns_per_lookup", ratio(ns["uopcache"], float64(w.ocLookups)), n)
	rep.set("decode.host_ns_per_inst", ratio(ns["decode"], float64(w.decoded)), n)
	rep.set("backend.host_ns_per_uop", ratio(ns["backend"], float64(w.retired)), n)
	rep.set("pipeline.host_ns_per_cycle", ratio(ns["pipeline"], float64(w.cycles)), n)
	return nil
}

// cpuSample is one profile sample: its stack, leaf first, with inlined
// frames expanded, and the CPU time it stands for.
type cpuSample struct {
	stack []string
	nanos int64
}

// profileSamples reads a CPU profile through `go tool pprof -traces`.
func profileSamples(path string) ([]cpuSample, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(string(out))
}

// parseTraces parses pprof's -traces text. After a header, dashed lines
// separate the samples; a sample's first line is its value and leaf
// function, each further line one caller:
//
//	-----------+-------------------------------------------------------
//	  10000000ns   uopsim/internal/bpred.(*TAGE).Predict
//	               uopsim/internal/pipeline.(*Sim).step (inline)
//	-----------+-------------------------------------------------------
func parseTraces(text string) ([]cpuSample, error) {
	var out []cpuSample
	inHeader, first := true, false
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "-----------+"):
			inHeader, first = false, true
		case inHeader || len(f) == 0:
		case first:
			d, err := time.ParseDuration(f[0])
			if err != nil || len(f) < 2 {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			out = append(out, cpuSample{nanos: int64(d), stack: []string{f[1]}})
			first = false
		default:
			last := &out[len(out)-1]
			last.stack = append(last.stack, f[0])
		}
	}
	if len(out) == 0 {
		return nil, errors.New("pprof traces: no samples")
	}
	return out, nil
}
