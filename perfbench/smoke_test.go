package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"uopsim/internal/experiments"
)

// tinyScale runs every workload in a few seconds: one sim_sweep workload
// at the full run lengths (so the expected digests still apply), one
// fixture capacity, small sweep batches and few hop pairs.
var tinyScale = scale{
	simWorkloads: []string{"redis"},
	setupRepeats: 2,
	fixtureCaps:  []int{2048},
	sweepBatch:   4,
	hopPairs:     5,
}

var workloads = []string{"sim_sweep", "serve_warm", "serve_sweep", "serve_mixed"}

// buildService builds uopsimd and uopgate from the repository sources.
func buildService(t *testing.T) string {
	bin := t.TempDir()
	for _, cmd := range []string{"uopsimd", "uopgate"} {
		c := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd)
		c.Dir = ".."
		if out, err := c.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}
	return bin
}

func metricNames(m map[string]metricOut) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func defNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload untraced and traced at tiny scale: each
// run is correct, carries exactly its metric set with units, every
// end-to-end metric has samples, and every per-layer metric is measured by
// at least one workload. A second seed keeps the metric set.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the service")
	}
	bin := buildService(t)
	measured := map[string]bool{}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			c := config{workload: wl, seed: 1, seconds: 2, trace: trace, bin: bin, work: t.TempDir(), scale: tinyScale}
			res, err := run(c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d", wl, trace, res.Correct, res.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if got, want := metricNames(res.Metrics), defNames(defs); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", wl, trace, got, want)
			}
			for _, d := range defs {
				m := res.Metrics[d.name]
				if m.Unit != d.unit {
					t.Errorf("%s: %s unit %q, want %q", wl, d.name, m.Unit, d.unit)
				}
				n := res.samples[d.name]
				if !trace && (n == 0 || m.Value <= 0) {
					t.Errorf("%s: end-to-end %s = %v with %d samples", wl, d.name, m.Value, n)
				}
				if n > 0 {
					measured[d.name] = true
				}
			}
		}
	}
	for _, d := range perLayer {
		if !measured[d.name] {
			t.Errorf("per-layer %s is measured by no workload", d.name)
		}
	}

	c := config{workload: "serve_warm", seed: 2, seconds: 2, bin: bin, work: t.TempDir(), scale: tinyScale}
	res, err := run(c)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := metricNames(res.Metrics), defNames(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("seed 2: metrics %v, want %v", got, want)
	}
}

// TestSeedChangesRequests checks that the seed drives the generated
// requests: two seeds give different streams, one seed gives one stream.
func TestSeedChangesRequests(t *testing.T) {
	fix := make([]fixturePoint, 40)
	for i := range fix {
		fix[i].req = experiments.PointRequest{Workload: "redis", Capacity: 1024 + i}
	}
	stream := func(seed int64) ([]op, []experiments.PointRequest) {
		rng := rand.New(rand.NewSource(seed))
		return openLoopOps(rng, fix, 5), sweepCandidates(rng)[:64]
	}
	ops1, sw1 := stream(1)
	ops1b, sw1b := stream(1)
	ops2, sw2 := stream(2)
	if !reflect.DeepEqual(ops1, ops1b) || !reflect.DeepEqual(sw1, sw1b) {
		t.Error("the same seed generated different requests")
	}
	if reflect.DeepEqual(ops1, ops2) || reflect.DeepEqual(sw1, sw2) {
		t.Error("seeds 1 and 2 generated the same requests")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists equal to what the
// command emits and its workloads among those the command runs.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	runnable := map[string]bool{}
	for _, w := range workloads {
		runnable[w] = true
	}
	for _, w := range bj.Workloads {
		if !runnable[w.Name] {
			t.Errorf("BENCHMARK.json lists workload %q, which the command does not run", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json has %d %s metrics, the command emits %d", len(got), kind, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("BENCHMARK.json %s[%d] = %s (%s), want %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
