package experiments

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"uopsim/internal/pipeline"
	"uopsim/internal/runcache"
	"uopsim/internal/surrogate"
	"uopsim/internal/warehouse"
	"uopsim/internal/workload"
)

// The gates in this file hold the documented promises of the two
// approximate answer forms: interval-sampled runs stay within the sampling
// error bound (TestSamplingErrorBound), surrogate estimates served at the
// confidence gate stay within the estimate error bound
// (TestEstimateHeldOutAccuracy), and the fast tier answers in under a
// millisecond at least 100x faster than one simulation
// (TestSurrogateFastTier). Each test measures a report, logs its table
// (visible with -v) and hands the report to one check method;
// TestGateChecksRefusePastBound seeds those methods with reports just past
// each bound.

// Gate bounds, in the units of the reports below.
const (
	samplingBoundPct    = 6.0  // worst relative error of a sampled run, per gated metric
	estimateBoundPct    = 6.0  // worst relative error over the confident held-out subset
	surrogateP99LimitUs = 1000 // every tier's p99 predict latency must stay below this
	surrogateMinSpeedup = 100  // every tier must be at least this much faster than one simulation
)

// skipGate skips the slow gates under -short and under the race detector,
// whose instrumentation slows predicts and simulations by different factors
// and so would make the latency gate meaningless.
func skipGate(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("slow accuracy/latency gate")
	}
	if raceEnabled {
		t.Skip("gate timings are not meaningful under the race detector")
	}
}

func relErrPct(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	return math.Abs(got-want) / math.Abs(want) * 100
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// samplingRow is one workload's full-vs-sampled comparison.
type samplingRow struct {
	Workload                        string
	FullMS, SampledMS               float64
	UPCErrPct, HitErrPct, MixErrPct float64
}

// samplingReport is TestSamplingErrorBound's result: the per-workload rows
// and the worst error of each gated metric across them.
type samplingReport struct {
	Rows                                  []samplingRow
	WorstUPCPct, WorstHitPct, WorstMixPct float64
}

func (r samplingReport) check() error {
	var errs []error
	for _, g := range []struct {
		metric string
		worst  float64
	}{
		{"UPC", r.WorstUPCPct},
		{"OC hit rate", r.WorstHitPct},
		{"OC fetch ratio", r.WorstMixPct},
	} {
		if g.worst > samplingBoundPct {
			errs = append(errs, fmt.Errorf("%s worst-case sampling error %.2f%% exceeds the %.1f%% bound", g.metric, g.worst, samplingBoundPct))
		}
	}
	return errors.Join(errs...)
}

// TestSamplingErrorBound quantifies the interval-sampling trade at the
// paper's headline design point (F-PWAC, 2048 uops): every workload runs
// in full and sampled at the default run lengths and default Sampling, and
// the worst relative error on UPC, OC hit rate and OC fetch ratio must stay
// within samplingBoundPct. Runs are sequential so the wall-clock columns
// measure the simulator, not the scheduler.
func TestSamplingErrorBound(t *testing.T) {
	skipGate(t)
	sc := Schemes(2)[4]
	cfg := sc.Configure(2048)
	full := Params{WarmupInsts: pipeline.DefaultWarmupInsts, MeasureInsts: pipeline.DefaultMeasureInsts}
	sampled := full
	sampled.Sampling = pipeline.Sampling{Enabled: true}
	sp := sampled.Sampling.WithDefaults(full.MeasureInsts)

	run := func(p Params, name string) (pipeline.Metrics, float64) {
		start := time.Now()
		r, err := simulatePoint(p, name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return r.Metrics, msSince(start)
	}
	var rep samplingReport
	for _, name := range workload.Names() {
		f, fullMS := run(full, name)
		s, sampledMS := run(sampled, name)
		row := samplingRow{
			Workload:  name,
			FullMS:    fullMS,
			SampledMS: sampledMS,
			UPCErrPct: relErrPct(s.UPC, f.UPC),
			HitErrPct: relErrPct(s.OCHitRate, f.OCHitRate),
			MixErrPct: relErrPct(s.OCFetchRatio, f.OCFetchRatio),
		}
		rep.Rows = append(rep.Rows, row)
		rep.WorstUPCPct = math.Max(rep.WorstUPCPct, row.UPCErrPct)
		rep.WorstHitPct = math.Max(rep.WorstHitPct, row.HitErrPct)
		rep.WorstMixPct = math.Max(rep.WorstMixPct, row.MixErrPct)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s/2048 at %d+%d insts, K=%d M=%d W=%d (%.1f%% of the measured region cycle-simulated), bound %.1f%%\n",
		sc.Name, full.WarmupInsts, full.MeasureInsts, sp.Intervals, sp.IntervalInsts, sp.WarmupInsts,
		sp.Coverage(full.MeasureInsts)*100, samplingBoundPct)
	fmt.Fprintf(&b, "%-11s %9s %9s %8s %9s %9s %9s\n", "workload", "full", "sampled", "speedup", "UPC err", "hit err", "mix err")
	var fullMS, sampledMS, sumUPC, sumHit, sumMix float64
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "%-11s %7.0fms %7.0fms %7.2fx %8.2f%% %8.2f%% %8.2f%%\n",
			r.Workload, r.FullMS, r.SampledMS, r.FullMS/r.SampledMS, r.UPCErrPct, r.HitErrPct, r.MixErrPct)
		fullMS += r.FullMS
		sampledMS += r.SampledMS
		sumUPC += r.UPCErrPct
		sumHit += r.HitErrPct
		sumMix += r.MixErrPct
	}
	n := float64(len(rep.Rows))
	fmt.Fprintf(&b, "aggregate: %.2fx wall-clock | UPC worst %.2f%% mean %.2f%% | hit worst %.2f%% mean %.2f%% | mix worst %.2f%% mean %.2f%%",
		fullMS/sampledMS, rep.WorstUPCPct, sumUPC/n, rep.WorstHitPct, sumHit/n, rep.WorstMixPct, sumMix/n)
	t.Log("\n" + b.String())
	if err := rep.check(); err != nil {
		t.Fatal(err)
	}
}

// estimateMetricError is one gated metric's held-out error, over every
// predicted test point and over the confident subset (the predictions the
// daemon would actually have served).
type estimateMetricError struct {
	Metric                             string
	MAEPct, WorstPct                   float64
	ConfidentMAEPct, ConfidentWorstPct float64
}

// estimateReport is TestEstimateHeldOutAccuracy's result.
type estimateReport struct {
	TrainPoints, TestPoints, Predicted, Confident int
	ExactHits                                     int // a held-out point served exactly means the holdout leaked
	Metrics                                       []estimateMetricError
}

func (r estimateReport) check() error {
	var errs []error
	if r.ExactHits > 0 {
		errs = append(errs, fmt.Errorf("%d held-out points were exact hits: the holdout leaked into training", r.ExactHits))
	}
	if r.Predicted == 0 {
		errs = append(errs, errors.New("the model predicted no held-out point"))
	}
	if r.Confident == 0 {
		errs = append(errs, errors.New("no held-out prediction cleared the serving gate: the fast tier would never serve on this grid"))
	}
	for _, me := range r.Metrics {
		if me.ConfidentWorstPct > estimateBoundPct {
			errs = append(errs, fmt.Errorf("%s confident-subset worst error %.2f%% exceeds the %.1f%% bound", me.Metric, me.ConfidentWorstPct, estimateBoundPct))
		}
	}
	return errors.Join(errs...)
}

// estimateGatedMetrics are the metrics the estimate gate bounds, the same
// three the sampling gate bounds, so the two error budgets compare.
var estimateGatedMetrics = []string{"oc_fetch_ratio", "oc_hit_rate", "upc"}

// TestEstimateHeldOutAccuracy measures the surrogate's held-out accuracy
// on the model uopsimd serves from /v1/estimate. Over the workloads x
// Schemes(2) x {1024, 2048, 4096} grid at 5k+20k instructions, every third
// point is held out; the model trains strictly on the rest and predicts
// the holdout. Over the predictions at or above the default serving gate,
// each gated metric's worst relative error must stay within
// estimateBoundPct, no held-out point may be an exact hit, and at least one
// point must be predicted and at least one served.
func TestEstimateHeldOutAccuracy(t *testing.T) {
	skipGate(t)
	const holdoutEvery = 3
	p := Params{WarmupInsts: 5_000, MeasureInsts: 20_000}.withDefaults()
	var pts []Point
	for _, wl := range p.Workloads {
		for _, sc := range Schemes(2) {
			for _, capacity := range []int{1024, 2048, 4096} {
				pts = append(pts, Point{Workload: wl, Scheme: sc, Capacity: capacity})
			}
		}
	}
	runs, err := RunPoints(p, pts)
	if err != nil {
		t.Fatal(err)
	}
	held := func(i int) bool { return i%holdoutEvery == holdoutEvery-1 }
	features := func(pt Point) runcache.Features {
		feat, err := FeaturesForPoint(pt, p)
		if err != nil {
			t.Fatal(err)
		}
		return feat
	}
	truth := func(r Run) map[string]float64 {
		return DerivedMetricValues(PointResult{Suite: r.Suite, Metrics: r.Metrics, Snapshot: r.Snapshot})
	}

	var train []surrogate.Point
	for i, pt := range pts {
		if held(i) {
			continue
		}
		train = append(train, surrogate.Point{
			Fingerprint: runcache.Fingerprint(fmt.Sprintf("ev-%s-%s-%d", pt.Workload, pt.Scheme.Name, pt.Capacity)),
			Features:    features(pt),
			Metrics:     truth(runs[i]),
		})
	}
	model := surrogate.New(surrogate.Options{})
	model.Fit(train)

	rep := estimateReport{TrainPoints: len(train)}
	for _, m := range estimateGatedMetrics {
		rep.Metrics = append(rep.Metrics, estimateMetricError{Metric: m})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s %-9s %8s %6s", "workload", "scheme", "capacity", "conf")
	for _, m := range estimateGatedMetrics {
		fmt.Fprintf(&b, " %15s", m)
	}
	b.WriteByte('\n')
	for i, pt := range pts {
		if !held(i) {
			continue
		}
		rep.TestPoints++
		fmt.Fprintf(&b, "%-11s %-9s %8d", pt.Workload, pt.Scheme.Name, pt.Capacity)
		pred, ok := model.Predict(features(pt))
		if !ok {
			b.WriteString("      -\n")
			continue
		}
		rep.Predicted++
		if pred.Exact {
			rep.ExactHits++
		}
		confident := pred.Confidence >= DefaultEstimateConfidence
		if confident {
			rep.Confident++
		}
		fmt.Fprintf(&b, " %6.2f", pred.Confidence)
		want := truth(runs[i])
		for mi := range rep.Metrics {
			me := &rep.Metrics[mi]
			e := relErrPct(pred.Metrics[me.Metric], want[me.Metric])
			fmt.Fprintf(&b, " %14.2f%%", e)
			me.MAEPct += e
			me.WorstPct = math.Max(me.WorstPct, e)
			if confident {
				me.ConfidentMAEPct += e
				me.ConfidentWorstPct = math.Max(me.ConfidentWorstPct, e)
			}
		}
		b.WriteByte('\n')
	}
	// The MAE fields hold sums so far; every predicted point contributed to
	// each metric, so the counts are Predicted and Confident.
	for mi := range rep.Metrics {
		me := &rep.Metrics[mi]
		if rep.Predicted > 0 {
			me.MAEPct /= float64(rep.Predicted)
		}
		if rep.Confident > 0 {
			me.ConfidentMAEPct /= float64(rep.Confident)
		}
	}
	fmt.Fprintf(&b, "train=%d test=%d predicted=%d confident=%d (%.1f%%) exact_leaks=%d, serving gate %.2f, bound %.1f%%\n",
		rep.TrainPoints, rep.TestPoints, rep.Predicted, rep.Confident,
		100*float64(rep.Confident)/float64(rep.TestPoints), rep.ExactHits, DefaultEstimateConfidence, estimateBoundPct)
	for _, me := range rep.Metrics {
		fmt.Fprintf(&b, "metric %s mae=%.2f%% worst=%.2f%% confident_mae=%.2f%% confident_worst=%.2f%%\n",
			me.Metric, me.MAEPct, me.WorstPct, me.ConfidentMAEPct, me.ConfidentWorstPct)
	}
	t.Log("\n" + strings.TrimSuffix(b.String(), "\n"))
	if err := rep.check(); err != nil {
		t.Fatal(err)
	}
}

// surrogateTier is one predict path's latency distribution, and its
// throughput relative to one real simulation.
type surrogateTier struct {
	Name                         string
	P50Us, P95Us, P99Us          float64
	MeanUs, PerSec, SpeedupVsSim float64
}

// surrogateReport is TestSurrogateFastTier's result.
type surrogateReport struct {
	Points, Dimensions, Partitions int
	FitMS, SimulateMS              float64
	Exact, KNN                     surrogateTier
}

func (r surrogateReport) check() error {
	var errs []error
	for _, tier := range []surrogateTier{r.Exact, r.KNN} {
		if tier.P99Us >= surrogateP99LimitUs {
			errs = append(errs, fmt.Errorf("%s p99 %.1fus breaches the %dus promise", tier.Name, tier.P99Us, surrogateP99LimitUs))
		}
		if tier.SpeedupVsSim < surrogateMinSpeedup {
			errs = append(errs, fmt.Errorf("%s speedup %.0fx is below the %dx promise", tier.Name, tier.SpeedupVsSim, surrogateMinSpeedup))
		}
	}
	return errors.Join(errs...)
}

// TestSurrogateFastTier holds the fast tier behind /v1/estimate to its two
// headline promises. A 325-point corpus (every workload x Schemes(2) x
// {512 ... 8192} at 2k+10k instructions) is stored in a warehouse and the
// model the daemon serves is trained from it. Corpus queries must be
// answered from the exact tier, the same grid shifted by 256 uops (an
// unstored capacity in the same partition) from the k-NN tier, and over
// 20,000 predicts each tier's p99 must stay under a millisecond and its
// throughput at least 100x that of one simulation of the same shape.
func TestSurrogateFastTier(t *testing.T) {
	skipGate(t)
	const predicts = 20_000
	p := Params{WarmupInsts: 2_000, MeasureInsts: 10_000}
	eng, ws, err := NewEngine(t.TempDir(), warehouse.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })
	p.Engine = eng
	var pts []Point
	for _, wl := range workload.Names() {
		for _, sc := range Schemes(2) {
			for _, capacity := range []int{512, 1024, 2048, 4096, 8192} {
				pts = append(pts, Point{Workload: wl, Scheme: sc, Capacity: capacity})
			}
		}
	}
	if _, err := RunPoints(p, pts); err != nil {
		t.Fatal(err)
	}

	fitStart := time.Now()
	model, skipped, err := NewStoreSurrogate(ws, surrogate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := surrogateReport{Points: model.Len(), FitMS: msSince(fitStart)}
	if rep.Points != len(pts) {
		t.Fatalf("model holds %d points (%d records skipped), want the full %d-point corpus", rep.Points, skipped, len(pts))
	}
	st := model.Stats()
	rep.Dimensions, rep.Partitions = st.Dimensions, st.Partitions

	exactFeats := make([]runcache.Features, len(pts))
	knnFeats := make([]runcache.Features, len(pts))
	for i, pt := range pts {
		if exactFeats[i], err = FeaturesForPoint(pt, p); err != nil {
			t.Fatal(err)
		}
		pt.Capacity += 256
		if knnFeats[i], err = FeaturesForPoint(pt, p); err != nil {
			t.Fatal(err)
		}
	}
	measure := func(name string, feats []runcache.Features, wantExact bool) surrogateTier {
		lats := make([]time.Duration, predicts)
		start := time.Now()
		for i := range lats {
			t0 := time.Now()
			pred, ok := model.Predict(feats[i%len(feats)])
			lats[i] = time.Since(t0)
			if !ok || pred.Exact != wantExact {
				t.Fatalf("%s query %d: predicted=%v exact=%v, want predicted exact=%v", name, i%len(feats), ok, pred.Exact, wantExact)
			}
		}
		elapsed := time.Since(start)
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		q := func(p float64) float64 { return float64(lats[int(p*float64(len(lats)-1))].Nanoseconds()) / 1e3 }
		return surrogateTier{
			Name:   name,
			P50Us:  q(0.50),
			P95Us:  q(0.95),
			P99Us:  q(0.99),
			MeanUs: float64(elapsed.Nanoseconds()) / predicts / 1e3,
			PerSec: predicts / elapsed.Seconds(),
		}
	}
	rep.Exact = measure("exact", exactFeats, true)
	rep.KNN = measure("knn", knnFeats, false)

	// The denominator: fresh simulations of the first corpus point, one
	// untimed to warm the shared workload build, then three timed.
	const simIters = 3
	wl, err := workload.Shared(pts[0].Workload)
	if err != nil {
		t.Fatal(err)
	}
	simulate := func() {
		sim, err := pipeline.New(pts[0].Scheme.Configure(pts[0].Capacity), wl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.RunMeasured(p.WarmupInsts, p.MeasureInsts); err != nil {
			t.Fatal(err)
		}
	}
	simulate()
	simStart := time.Now()
	for i := 0; i < simIters; i++ {
		simulate()
	}
	rep.SimulateMS = msSince(simStart) / simIters
	for _, tier := range []*surrogateTier{&rep.Exact, &rep.KNN} {
		tier.SpeedupVsSim = rep.SimulateMS * 1e3 / tier.MeanUs
	}

	var b strings.Builder
	fmt.Fprintf(&b, "points=%d dims=%d partitions=%d fit=%.1fms simulate=%.2fms, %d predicts per tier\n",
		rep.Points, rep.Dimensions, rep.Partitions, rep.FitMS, rep.SimulateMS, predicts)
	fmt.Fprintf(&b, "%-6s %9s %9s %9s %9s %10s %9s\n", "tier", "p50", "p95", "p99", "mean", "per sec", "speedup")
	for _, tier := range []surrogateTier{rep.Exact, rep.KNN} {
		fmt.Fprintf(&b, "%-6s %7.1fus %7.1fus %7.1fus %7.1fus %10.0f %8.0fx\n",
			tier.Name, tier.P50Us, tier.P95Us, tier.P99Us, tier.MeanUs, tier.PerSec, tier.SpeedupVsSim)
	}
	t.Log("\n" + strings.TrimSuffix(b.String(), "\n"))
	if err := rep.check(); err != nil {
		t.Fatal(err)
	}
}

// TestGateChecksRefusePastBound proves every gate can fail: each check
// method accepts a report sitting exactly at its bounds and refuses one
// with a single gated quantity seeded just past its bound.
func TestGateChecksRefusePastBound(t *testing.T) {
	past := func(bound float64) float64 { return math.Nextafter(bound, math.Inf(1)) }
	sampling := samplingReport{WorstUPCPct: samplingBoundPct, WorstHitPct: samplingBoundPct, WorstMixPct: samplingBoundPct}
	estimate := estimateReport{Predicted: 1, Confident: 1}
	for _, m := range estimateGatedMetrics {
		estimate.Metrics = append(estimate.Metrics, estimateMetricError{Metric: m, ConfidentWorstPct: estimateBoundPct})
	}
	// The latency promise is strict (p99 under 1 ms), so its edge is the
	// largest value below the limit.
	edge := surrogateTier{P99Us: math.Nextafter(surrogateP99LimitUs, 0), SpeedupVsSim: surrogateMinSpeedup}
	fast := surrogateReport{Exact: edge, KNN: edge}
	fast.Exact.Name, fast.KNN.Name = "exact", "knn"

	for name, check := range map[string]func() error{
		"sampling":  sampling.check,
		"estimate":  estimate.check,
		"surrogate": fast.check,
	} {
		if err := check(); err != nil {
			t.Errorf("%s gate refused a report at its bounds: %v", name, err)
		}
	}

	seedSampling := func(seed func(*samplingReport)) func() error {
		r := sampling
		seed(&r)
		return r.check
	}
	seedEstimate := func(seed func(*estimateReport)) func() error {
		r := estimate
		r.Metrics = append([]estimateMetricError(nil), estimate.Metrics...)
		seed(&r)
		return r.check
	}
	seedSurrogate := func(seed func(*surrogateReport)) func() error {
		r := fast
		seed(&r)
		return r.check
	}
	mutants := map[string]func() error{
		"sampling UPC":               seedSampling(func(r *samplingReport) { r.WorstUPCPct = past(samplingBoundPct) }),
		"sampling OC hit rate":       seedSampling(func(r *samplingReport) { r.WorstHitPct = past(samplingBoundPct) }),
		"sampling OC fetch ratio":    seedSampling(func(r *samplingReport) { r.WorstMixPct = past(samplingBoundPct) }),
		"estimate exact leak":        seedEstimate(func(r *estimateReport) { r.ExactHits = 1 }),
		"estimate nothing predicted": seedEstimate(func(r *estimateReport) { r.Predicted = 0 }),
		"estimate nothing confident": seedEstimate(func(r *estimateReport) { r.Confident = 0 }),
		"surrogate exact p99":        seedSurrogate(func(r *surrogateReport) { r.Exact.P99Us = surrogateP99LimitUs }),
		"surrogate knn p99":          seedSurrogate(func(r *surrogateReport) { r.KNN.P99Us = surrogateP99LimitUs }),
		"surrogate exact speedup":    seedSurrogate(func(r *surrogateReport) { r.Exact.SpeedupVsSim = surrogateMinSpeedup - 1 }),
		"surrogate knn speedup":      seedSurrogate(func(r *surrogateReport) { r.KNN.SpeedupVsSim = surrogateMinSpeedup - 1 }),
	}
	for i, m := range estimateGatedMetrics {
		mutants["estimate confident "+m] = seedEstimate(func(r *estimateReport) { r.Metrics[i].ConfidentWorstPct = past(estimateBoundPct) })
	}
	for name, check := range mutants {
		if check() == nil {
			t.Errorf("%s seeded past its bound: the gate accepted the report", name)
		}
	}
}
