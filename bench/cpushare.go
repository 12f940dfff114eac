package main

import "strings"

// CPU self-time by layer. Every sample of a CPU profile lands in exactly one
// bucket of cpuLayers, so the shares sum to 1:
//
//   - runtime_gc when any frame is garbage-collector work (background
//     marking, sweeping, an allocation's mark assist): the collector's cost
//     wherever it was triggered;
//   - otherwise the layer of the leaf-most frame that belongs to a listed
//     layer package, so time in the standard library or in an unlisted helper
//     package (math, sort, memmove, zorder, cells) is charged to the layer
//     that called it;
//   - bench when the leaf-most repository frame is the harness itself or glue
//     code called straight from its rank body (core, mdsim);
//   - runtime_sched for scheduler stacks with no repository frame (the g0
//     side of park/unpark), and runtime_other for what remains.
const repoPrefix = "repro/"

// packageOf returns the import path of the package that owns a pprof
// function name such as "repro/internal/fmm.(*Tables).M2L".
func packageOf(fn string) string {
	// Type arguments can hold slashes and dots of their own.
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf maps a package to its cpuLayers bucket: a listed layer, "bench"
// for the harness, "glue" for other repository packages, "" for the rest.
func layerOf(pkg string) string {
	if pkg == "main" || pkg == repoPrefix+"bench" {
		return "bench"
	}
	rest, ok := strings.CutPrefix(pkg, repoPrefix+"internal/")
	if !ok {
		if strings.HasPrefix(pkg, repoPrefix) {
			return "glue"
		}
		return ""
	}
	for _, l := range cpuLayers {
		if rest == l {
			return l
		}
	}
	return "glue"
}

func isGCFrame(fn string) bool {
	if !strings.HasPrefix(fn, "runtime.") {
		return false
	}
	return strings.HasPrefix(fn, "runtime.gc") ||
		strings.HasPrefix(fn, "runtime.(*gc") ||
		strings.HasPrefix(fn, "runtime.markroot") ||
		strings.HasPrefix(fn, "runtime.scanobject") ||
		strings.HasPrefix(fn, "runtime.scanblock") ||
		strings.HasPrefix(fn, "runtime.greyobject") ||
		strings.HasPrefix(fn, "runtime.wbBuf") ||
		strings.Contains(fn, "sweep") ||
		strings.Contains(fn, "scavenge")
}

var schedFrames = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
	"runtime.mcall": true, "runtime.mstart": true, "runtime.mstart1": true,
	"runtime.goexit0": true, "runtime.gosched_m": true, "runtime.gopreempt_m": true,
	"runtime.sysmon": true, "runtime.stopm": true, "runtime.startm": true,
	"runtime.wakep": true, "runtime.execute": true, "runtime.resetspinning": true,
}

// classify puts one sample's stack (leaf-most frame first) into its bucket.
func classify(stack []string) string {
	for _, fn := range stack {
		if isGCFrame(fn) {
			return "runtime_gc"
		}
	}
	glue := false
	for _, fn := range stack {
		switch l := layerOf(packageOf(fn)); l {
		case "":
		case "glue":
			glue = true
		default:
			return l
		}
	}
	if glue {
		return "bench"
	}
	for _, fn := range stack {
		if schedFrames[fn] {
			return "runtime_sched"
		}
	}
	return "runtime_other"
}

// cpuShares attributes the samples of a CPU profile to layers and returns
// each layer's share of the profile as "cpu_share.<layer>".
func cpuShares(profile []byte) (map[string]float64, error) {
	samples, err := readProfile(profile)
	if err != nil {
		return nil, err
	}
	byLayer := map[string]int64{}
	total := int64(0)
	for _, s := range samples {
		byLayer[classify(s.Stack)] += s.Value
		total += s.Value
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		if total > 0 {
			out["cpu_share."+l] = float64(byLayer[l]) / float64(total)
		}
	}
	return out, nil
}
