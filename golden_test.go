package uopsim_test

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"uopsim"
)

// goldenPoint / goldenFile are the layout of testdata/golden_metrics.json.
type goldenPoint struct {
	Workload string         `json:"workload"`
	Scheme   string         `json:"scheme"`
	Capacity int            `json:"capacity"`
	Metrics  uopsim.Metrics `json:"metrics"`
}

type goldenFile struct {
	Warmup  uint64        `json:"warmup_insts"`
	Measure uint64        `json:"measure_insts"`
	Points  []goldenPoint `json:"points"`
}

// Golden scale: small enough for a test, large enough to exercise every
// front-end path.
const (
	goldenPath     = "testdata/golden_metrics.json"
	goldenCapacity = 2048
	goldenWarmup   = 2_000
	goldenMeasure  = 10_000
)

// registryGolden is the golden file's required shape: every registered
// workload x Schemes(2) at goldenCapacity, in that order, metrics unset.
func registryGolden() goldenFile {
	gf := goldenFile{Warmup: goldenWarmup, Measure: goldenMeasure}
	for _, wl := range uopsim.WorkloadNames() {
		for _, sc := range uopsim.Schemes(2) {
			gf.Points = append(gf.Points, goldenPoint{Workload: wl, Scheme: sc.Name, Capacity: goldenCapacity})
		}
	}
	return gf
}

// loadGolden reads the golden file and fails the test unless its run
// lengths and point list match registryGolden exactly, so a workload added
// to the registry without goldens, a stale extra point or a reordered file
// fails instead of leaving points silently unchecked.
func loadGolden(t *testing.T) goldenFile {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var gf goldenFile
	if err := json.Unmarshal(raw, &gf); err != nil {
		t.Fatal(err)
	}
	want := registryGolden()
	if gf.Warmup != want.Warmup || gf.Measure != want.Measure {
		t.Fatalf("golden run lengths %d+%d, want %d+%d", gf.Warmup, gf.Measure, want.Warmup, want.Measure)
	}
	id := func(p goldenPoint) string { return fmt.Sprintf("%s/%s/%d", p.Workload, p.Scheme, p.Capacity) }
	for i := 0; i < max(len(gf.Points), len(want.Points)); i++ {
		switch {
		case i >= len(gf.Points):
			t.Fatalf("golden file lacks point %d (%s)", i, id(want.Points[i]))
		case i >= len(want.Points):
			t.Fatalf("golden file has extra point %d (%s)", i, id(gf.Points[i]))
		case id(gf.Points[i]) != id(want.Points[i]):
			t.Fatalf("golden point %d is %s, want %s", i, id(gf.Points[i]), id(want.Points[i]))
		}
	}
	return gf
}

// forEachGolden runs check as a parallel subtest named workload/scheme for
// every point of gf, passing the point's configuration.
func forEachGolden(t *testing.T, gf goldenFile, check func(t *testing.T, cfg uopsim.Config, pt *goldenPoint)) {
	schemes := map[string]uopsim.Scheme{}
	for _, sc := range uopsim.Schemes(2) {
		schemes[sc.Name] = sc
	}
	for i := range gf.Points {
		pt := &gf.Points[i]
		t.Run(pt.Workload+"/"+pt.Scheme, func(t *testing.T) {
			t.Parallel()
			check(t, schemes[pt.Scheme].Configure(pt.Capacity), pt)
		})
	}
}

// TestGoldenMetrics proves that optimization work does not change any
// reported number: every scheme x workload point must produce bit-identical
// Metrics versus testdata/golden_metrics.json, which was generated from the
// pre-optimization simulator. Regenerate the file with
// go test -run '^TestGoldenMetrics$' -update only for a change that
// intentionally alters simulated behaviour.
func TestGoldenMetrics(t *testing.T) {
	gf := registryGolden()
	if *update {
		t.Cleanup(func() {
			if t.Failed() {
				return
			}
			b, err := json.MarshalIndent(gf, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
		})
	} else {
		gf = loadGolden(t)
	}
	forEachGolden(t, gf, func(t *testing.T, cfg uopsim.Config, pt *goldenPoint) {
		m, err := uopsim.Run(cfg, pt.Workload, gf.Warmup, gf.Measure)
		if err != nil {
			t.Fatal(err)
		}
		if *update {
			pt.Metrics = m
		} else if !reflect.DeepEqual(m, pt.Metrics) {
			t.Errorf("metrics diverged from golden\n got: %+v\nwant: %+v", m, pt.Metrics)
		}
	})
}

// TestGoldenMetricsViaRegistry proves the metrics registry is a lossless
// substrate: deriving every golden point's metrics from registry snapshots
// (instead of the simulator's direct accounting) must still reproduce
// testdata/golden_metrics.json bit-for-bit across all 13 workloads x 5
// schemes. A counter that loses precision in a snapshot, a renamed path, or
// a gauge computed differently would all surface here.
func TestGoldenMetricsViaRegistry(t *testing.T) {
	gf := loadGolden(t)
	forEachGolden(t, gf, func(t *testing.T, cfg uopsim.Config, pt *goldenPoint) {
		sim, err := uopsim.NewSimulator(cfg, pt.Workload)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(gf.Warmup); err != nil {
			t.Fatal(err)
		}
		a := sim.StatsSnapshot()
		if err := sim.Run(gf.Measure); err != nil {
			t.Fatal(err)
		}
		b := sim.StatsSnapshot()
		m := uopsim.MetricsFromSnapshots(a, b)
		if !reflect.DeepEqual(m, pt.Metrics) {
			t.Errorf("snapshot-derived metrics diverged from golden\n got: %+v\nwant: %+v", m, pt.Metrics)
		}
	})
}
