package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"uopsim"
)

// The -surrogate mode micro-benchmarks the fast tier behind uopsimd's
// /v1/estimate and writes BENCH_surrogate.json: it resolves a full
// workload × scheme × capacity corpus (325 points) into a warehouse,
// trains the same model the daemon serves, then measures exact-hit and
// k-NN predict latency percentiles against one real simulation's wall
// clock. The harness self-gates on the fast tier's two headline promises —
// p99 under a millisecond and at least 100x a simulation's throughput —
// so a regression in either fails the run, not just shifts a number.

// surrogateCapacities spans the corpus grid together with every workload
// and every Schemes(2) design point: 13 × 5 × 5 = 325 training points.
var surrogateCapacities = []int{512, 1024, 2048, 4096, 8192}

const surrogatePredicts = 20_000

// SurrogateTier is one predict path's latency distribution.
type SurrogateTier struct {
	N       int     `json:"n"`
	P50Us   float64 `json:"p50_us"`
	P95Us   float64 `json:"p95_us"`
	P99Us   float64 `json:"p99_us"`
	MeanUs  float64 `json:"mean_us"`
	PerSec  float64 `json:"predicts_per_sec"`
	Speedup float64 `json:"speedup_vs_simulate"`
}

// SurrogateReport is the -surrogate mode's machine-readable output.
type SurrogateReport struct {
	Points     int     `json:"points"`
	Dimensions int     `json:"dimensions"`
	Partitions int     `json:"partitions"`
	Warmup     uint64  `json:"warmup_insts"`
	Measure    uint64  `json:"measure_insts"`
	FitMS      float64 `json:"fit_ms"`
	// SimulateMS is one real design-point simulation's mean wall clock at
	// the same run lengths — the denominator of every speedup column.
	SimulateMS float64       `json:"simulate_ms"`
	Exact      SurrogateTier `json:"exact"`
	KNN        SurrogateTier `json:"knn"`
}

// runSurrogateBench builds the corpus, trains, measures, gates, writes.
func runSurrogateBench(path string, parallel int, whDir string) error {
	if whDir == "" {
		tmp, err := os.MkdirTemp("", "uopbench-surrogate-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		whDir = tmp
	}
	var pts []uopsim.DesignPoint
	for _, name := range uopsim.WorkloadNames() {
		for _, sc := range uopsim.Schemes(2) {
			for _, capacity := range surrogateCapacities {
				pts = append(pts, uopsim.DesignPoint{Workload: name, Scheme: sc, Capacity: capacity})
			}
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
	defer ws.Close()
	params.Engine = eng
	if _, err := uopsim.RunDesignPoints(params, pts); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "[engine: %s]\n", eng.Stats())

	fitStart := time.Now()
	model, skipped, err := uopsim.TrainSurrogate(ws, uopsim.SurrogateOptions{})
	if err != nil {
		return err
	}
	fitMS := float64(time.Since(fitStart).Nanoseconds()) / 1e6
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "[surrogate: %d stored records unusable as training points]\n", skipped)
	}
	if model.Len() < len(pts) {
		return fmt.Errorf("surrogate trained on %d points, want the full %d-point corpus", model.Len(), len(pts))
	}

	// Query features: the corpus points themselves are the exact tier; the
	// same grid shifted to an unstored capacity is the k-NN tier (same
	// categorical partition, no canonical match).
	exactFeats := make([]uopsim.Features, len(pts))
	knnFeats := make([]uopsim.Features, len(pts))
	for i, pt := range pts {
		if exactFeats[i], err = uopsim.DesignPointFeatures(pt, params); err != nil {
			return err
		}
		shifted := pt
		shifted.Capacity = pt.Capacity + 256
		if knnFeats[i], err = uopsim.DesignPointFeatures(shifted, params); err != nil {
			return err
		}
	}

	measureTier := func(feats []uopsim.Features, wantExact bool) (SurrogateTier, error) {
		lats := make([]time.Duration, 0, surrogatePredicts)
		start := time.Now()
		for i := 0; i < surrogatePredicts; i++ {
			feat := feats[i%len(feats)]
			t0 := time.Now()
			pred, ok := model.Predict(feat)
			lats = append(lats, time.Since(t0))
			if !ok {
				return SurrogateTier{}, fmt.Errorf("surrogate refused a corpus-adjacent query (i=%d)", i)
			}
			if pred.Exact != wantExact {
				return SurrogateTier{}, fmt.Errorf("query exactness = %v, want %v (i=%d)", pred.Exact, wantExact, i)
			}
		}
		elapsed := time.Since(start)
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		q := func(p float64) float64 {
			return float64(lats[int(p*float64(len(lats)-1))].Nanoseconds()) / 1e3
		}
		return SurrogateTier{
			N:      len(lats),
			P50Us:  q(0.50),
			P95Us:  q(0.95),
			P99Us:  q(0.99),
			MeanUs: float64(elapsed.Nanoseconds()) / float64(len(lats)) / 1e3,
			PerSec: float64(len(lats)) / elapsed.Seconds(),
		}, nil
	}
	rep := SurrogateReport{
		Points:  model.Len(),
		Warmup:  goldenWarmup,
		Measure: goldenMeasure,
		FitMS:   fitMS,
	}
	st := model.Stats()
	rep.Dimensions = st.Dimensions
	rep.Partitions = st.Partitions
	if rep.Exact, err = measureTier(exactFeats, true); err != nil {
		return err
	}
	if rep.KNN, err = measureTier(knnFeats, false); err != nil {
		return err
	}

	// The denominator: real simulations of the same shape, uncached (fresh
	// simulator per op, exactly one untimed warmup op like the throughput
	// harness).
	const simIters = 3
	simPt := pts[0]
	cfg := simPt.Scheme.Configure(simPt.Capacity)
	if _, err := uopsim.Run(cfg, simPt.Workload, goldenWarmup, goldenMeasure); err != nil {
		return err
	}
	simStart := time.Now()
	for i := 0; i < simIters; i++ {
		if _, err := uopsim.Run(cfg, simPt.Workload, goldenWarmup, goldenMeasure); err != nil {
			return err
		}
	}
	simNs := float64(time.Since(simStart).Nanoseconds()) / simIters
	rep.SimulateMS = simNs / 1e6
	rep.Exact.Speedup = simNs / (rep.Exact.MeanUs * 1e3)
	rep.KNN.Speedup = simNs / (rep.KNN.MeanUs * 1e3)

	if err := writeJSON(path, rep); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"surrogate points=%d dims=%d fit=%.1fms exact p50=%.1fus p99=%.1fus (%.0f/s) knn p50=%.1fus p99=%.1fus (%.0f/s) simulate=%.1fms speedup exact=%.0fx knn=%.0fx\n",
		rep.Points, rep.Dimensions, rep.FitMS,
		rep.Exact.P50Us, rep.Exact.P99Us, rep.Exact.PerSec,
		rep.KNN.P50Us, rep.KNN.P99Us, rep.KNN.PerSec,
		rep.SimulateMS, rep.Exact.Speedup, rep.KNN.Speedup)

	// The two headline promises, self-gated like -sample-validate's bound.
	var viol []string
	for tier, t := range map[string]SurrogateTier{"exact": rep.Exact, "knn": rep.KNN} {
		if t.P99Us >= 1000 {
			viol = append(viol, fmt.Sprintf("%s p99 %.1fus breaches the 1ms promise", tier, t.P99Us))
		}
		if t.Speedup < 100 {
			viol = append(viol, fmt.Sprintf("%s speedup %.0fx below the 100x promise", tier, t.Speedup))
		}
	}
	sort.Strings(viol)
	for _, v := range viol {
		fmt.Fprintln(os.Stderr, "uopbench:", v)
	}
	if len(viol) > 0 {
		return fmt.Errorf("%d fast-tier promise violations", len(viol))
	}
	return nil
}
