// Command uopbench generates the golden metrics file and runs the
// surrogate fast tier's latency gate. Performance tracking lives in
// perfbench, the repo's one benchmark.
//
// Usage:
//
//	uopbench -golden testdata/golden_metrics.json  # dump golden metrics
//	uopbench -surrogate BENCH_surrogate.json       # fast-tier latency report
//
// The -golden mode runs every scheme x workload point at a small fixed scale
// and dumps the exact Metrics; the root TestGoldenMetrics compares the
// current simulator against that file bit-for-bit, so perf work cannot
// silently change reported numbers.
//
// The -surrogate mode (see surrogate.go) trains the /v1/estimate fast tier
// on a 325-point corpus and reports predict latency percentiles and the
// speedup over a real simulation, gating on p99 < 1ms and >= 100x.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"uopsim"
)

// GoldenPoint is one scheme x workload metrics dump.
type GoldenPoint struct {
	Workload string         `json:"workload"`
	Scheme   string         `json:"scheme"`
	Capacity int            `json:"capacity"`
	Metrics  uopsim.Metrics `json:"metrics"`
}

// Golden-dump scale: small enough for a test, large enough to exercise every
// front-end path. These constants are shared with the root golden test via
// the JSON header.
type GoldenFile struct {
	Warmup  uint64        `json:"warmup_insts"`
	Measure uint64        `json:"measure_insts"`
	Points  []GoldenPoint `json:"points"`
}

const (
	goldenWarmup  = 2_000
	goldenMeasure = 10_000
)

func main() {
	var (
		golden    = flag.String("golden", "", "write a golden metrics dump to this path")
		surrogate = flag.String("surrogate", "", "write the surrogate fast-tier latency/speedup report to this path (conventionally BENCH_surrogate.json)")
		parallel  = flag.Int("parallel", 1, "concurrent simulations (0 = all CPUs)")
		whDir     = flag.String("warehouse", "", "design-point warehouse directory")
	)
	flag.Parse()

	var err error
	switch {
	case *golden != "":
		err = writeGolden(*golden, *parallel, *whDir)
	case *surrogate != "":
		err = runSurrogateBench(*surrogate, *parallel, *whDir)
	default:
		fmt.Fprintln(os.Stderr, "usage: uopbench -golden PATH | -surrogate PATH [-parallel N] [-warehouse DIR]")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "uopbench:", err)
		os.Exit(1)
	}
}

// writeGolden dumps exact metrics for every scheme x workload point, routed
// through the shared design-point engine so the dump can run in parallel
// and, with a warehouse, reuse blobs from previous invocations. The point
// order — and therefore the file — is identical to the historical
// sequential loop.
func writeGolden(path string, parallel int, whDir string) error {
	var pts []uopsim.DesignPoint
	for _, name := range uopsim.WorkloadNames() {
		for _, sc := range uopsim.Schemes(2) {
			pts = append(pts, uopsim.DesignPoint{Workload: name, Scheme: sc, Capacity: 2048})
		}
	}
	params := uopsim.ExperimentParams{
		WarmupInsts:  goldenWarmup,
		MeasureInsts: goldenMeasure,
		Parallel:     parallel,
	}
	eng, ws, err := uopsim.NewRunEngine(whDir, uopsim.WarehouseOptions{}, 0)
	if err != nil {
		return err
	}
	if ws != nil {
		defer ws.Close()
	}
	params.Engine = eng
	runs, err := uopsim.RunDesignPoints(params, pts)
	if err != nil {
		return err
	}
	gf := GoldenFile{Warmup: goldenWarmup, Measure: goldenMeasure}
	for i, r := range runs {
		gf.Points = append(gf.Points, GoldenPoint{
			Workload: pts[i].Workload, Scheme: pts[i].Scheme.Name, Capacity: 2048, Metrics: r.Metrics,
		})
	}
	if ws != nil {
		fmt.Fprintf(os.Stderr, "[engine: %s]\n", eng.Stats())
	}
	return writeJSON(path, gf)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
