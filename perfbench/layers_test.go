package main

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// simulatorPackages walks the non-test imports of the simulator core from
// the repository sources and returns every uopsim/internal package reached.
func simulatorPackages(t *testing.T) map[string]bool {
	seen := map[string]bool{}
	var visit func(pkg string)
	visit = func(pkg string) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		dir := filepath.Join("..", strings.TrimPrefix(pkg, "uopsim/"))
		notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, notTest, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkgs {
			for _, f := range p.Files {
				for _, imp := range f.Imports {
					path, err := strconv.Unquote(imp.Path.Value)
					if err != nil {
						t.Fatal(err)
					}
					if strings.HasPrefix(path, "uopsim/internal/") {
						visit(path)
					}
				}
			}
		}
	}
	visit("uopsim/internal/pipeline")
	return seen
}

// TestLayerTableCoversSimulator keeps the package → layer table in step
// with the simulator: every internal package it imports has a layer, and
// no row names a package the simulator no longer imports.
func TestLayerTableCoversSimulator(t *testing.T) {
	pkgs := simulatorPackages(t)
	var names []string
	for p := range pkgs {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		if _, ok := layerOfPackage[p]; !ok {
			t.Errorf("simulator package %s has no layer in layerOfPackage", p)
		}
	}
	for p, l := range layerOfPackage {
		if !pkgs[p] {
			t.Errorf("layerOfPackage row %s → %s names a package the simulator does not import", p, l)
		}
	}
	layers := map[string]bool{}
	for _, l := range simLayers {
		layers[l] = true
	}
	for p, l := range layerOfPackage {
		if !layers[l] {
			t.Errorf("layerOfPackage row %s → %s names a layer not in simLayers", p, l)
		}
	}
}

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"uopsim/internal/bpred.(*TAGE).Predict": "bpred",
		"uopsim/internal/pipeline.(*Sim).step":  "pipeline",
		"uopsim/internal/cache.(*Cache).Access": "mem",
		"uopsim/internal/somethingnew.Func":     "unattributed",
		"uopsim.NewSimulator":                   "unattributed",
		"runtime.mallocgc":                      "runtime.alloc",
		"runtime.growslice":                     "runtime.alloc",
		"runtime.memmove":                       "runtime.copy",
		"runtime.duffcopy":                      "runtime.copy",
		"runtime.memclrNoHeapPointers":          "runtime.copy",
		"runtime.gcBgMarkWorker":                "runtime.gc",
		"runtime.scanobject":                    "runtime.gc",
		"runtime.(*mspan).sweep":                "runtime.gc",
		"runtime.mapaccess2_fast64":             "",
		"sort.Slice":                            "",
		"main.runSimSweep":                      "harness",
	} {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestStackLayer(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"uopsim/internal/bpred.(*TAGE).Predict", "uopsim/internal/pipeline.(*Sim).step", "main.runSimSweep"}, "bpred"},
		{[]string{"runtime.mapaccess2_fast64", "uopsim/internal/uopcache.(*Cache).Lookup", "main.runSimSweep"}, "uopcache"},
		{[]string{"runtime.mallocgc", "runtime.growslice", "uopsim/internal/fetch.(*Unit).Build", "main.runSimSweep"}, "runtime.alloc"},
		{[]string{"runtime.mallocgc", "encoding/json.Marshal", "main.metricsDigest", "main.runSimSweep"}, "harness"},
		{[]string{"crypto/sha256.block", "main.metricsDigest"}, "harness"},
		{[]string{"uopsim/internal/somethingnew.Func", "main.runSimSweep"}, "unattributed"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.schedule"}, "harness"},
	} {
		if got := stackLayer(tc.stack); got != tc.want {
			t.Errorf("stackLayer(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestParseTraces(t *testing.T) {
	text := `File: perfbench
Type: cpu
Duration: 1.40s, Total samples = 30000000ns (2.14%)
-----------+-------------------------------------------------------
  10000000ns   uopsim/internal/bpred.(*TAGE).Predict
               uopsim/internal/pipeline.(*Sim).step (inline)
               main.runSimSweep
-----------+-------------------------------------------------------
  20000000ns   runtime.mallocgc
-----------+-------------------------------------------------------
`
	got, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []cpuSample{
		{stack: []string{"uopsim/internal/bpred.(*TAGE).Predict", "uopsim/internal/pipeline.(*Sim).step", "main.runSimSweep"}, nanos: 10_000_000},
		{stack: []string{"runtime.mallocgc"}, nanos: 20_000_000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseTraces = %+v, want %+v", got, want)
	}
}
