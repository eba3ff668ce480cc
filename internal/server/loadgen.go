package server

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"uopsim/internal/experiments"
)

// LoadConfig shapes one load run: Requests total requests drawn (with a
// seeded shuffle) from a pool of Unique distinct design points, issued by
// Concurrency client goroutines, optionally paced to RPS. 429 answers are
// retried up to Retries times, honoring the server's Retry-After hint
// (capped by RetryDelay when set, so tests and CI need not sleep for the
// server's worst-case estimate).
type LoadConfig struct {
	Requests    int
	Unique      int
	Concurrency int
	// RPS, when positive, paces issuance; 0 issues as fast as the
	// concurrency allows (the saturation mode that exercises 429s).
	RPS int
	// Warmup and Measure are the per-point run lengths.
	Warmup  uint64
	Measure uint64
	// Workloads and Capacities span the unique-point pool (defaults: a
	// three-suite Table II mix; capacities 1024 and 2048).
	Workloads  []string
	Capacities []int
	Seed       int64
	// Retries bounds 429 retries per request (default 3; negative
	// disables).
	Retries int
	// RetryDelay, when positive, caps the per-retry sleep regardless of
	// the server's Retry-After hint.
	RetryDelay time.Duration
	// TimeoutMS is forwarded as each request's timeout_ms.
	TimeoutMS int64
	// Sampling, when set, attaches the interval-sampling knobs to every
	// point in the mix, exercising the daemon's sampled path (distinct
	// fingerprints, mode-labeled counters).
	Sampling *experiments.SamplingRequest
	// MinConfidence, for estimate runs, overrides the server's confidence
	// gate per request (0 uses the server's setting).
	MinConfidence float64
	// EstimateChecks bounds how many surrogate-served points an estimate
	// run re-simulates afterward to measure fast-tier accuracy (default 3;
	// negative disables the check).
	EstimateChecks int
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Requests <= 0 {
		c.Requests = 50
	}
	if c.Unique <= 0 {
		c.Unique = 10
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Measure == 0 {
		c.Warmup, c.Measure = 2_000, 10_000
	}
	if len(c.Workloads) == 0 {
		c.Workloads = []string{"bm_cc", "redis", "jvm"}
	}
	if len(c.Capacities) == 0 {
		c.Capacities = []int{1024, 2048}
	}
	if c.Retries == 0 {
		c.Retries = 3
	}
	if c.EstimateChecks == 0 {
		c.EstimateChecks = 3
	}
	return c
}

// points builds the unique design-point pool: schemes × workloads ×
// capacities in a fixed order, truncated to Unique.
func (c LoadConfig) points() []experiments.PointRequest {
	var pts []experiments.PointRequest
	for _, cap := range c.Capacities {
		for _, wl := range c.Workloads {
			for _, sc := range experiments.Schemes(2) {
				pts = append(pts, experiments.PointRequest{
					Workload: wl,
					Scheme:   sc.Name,
					Capacity: cap,
					Warmup:   c.Warmup,
					Measure:  c.Measure,
					Sampling: c.Sampling,
				}.WithDefaults())
				if len(pts) == c.Unique {
					return pts
				}
			}
		}
	}
	return pts
}

// PoolSize reports how many distinct design points the config's mix draws
// from after defaulting — Unique, unless the workloads × schemes ×
// capacities grid is smaller. A cluster-wide dedupe check compares the
// fleet's total simulated count against exactly this number.
func (c LoadConfig) PoolSize() int { return len(c.withDefaults().points()) }

// LoadReport summarizes one load run.
type LoadReport struct {
	Requests  int
	OK        int
	Failed    int
	Status429 int
	Retries   int
	// Resolutions counts OK responses by how the server resolved them
	// (simulated / memo / disk).
	Resolutions map[string]int
	// Modes counts OK responses by simulation mode (sampled / full), as
	// reported by the server's mode field.
	Modes    map[string]int
	P50, P90 time.Duration
	P95      time.Duration
	P99, Max time.Duration
	Elapsed  time.Duration
	// ModeLatency is the per-mode latency profile: simulate runs key it by
	// simulation mode (sampled / full), estimate runs by serving tier
	// (surrogate / simulated) — the split that shows the fast path is fast.
	ModeLatency map[string]LatencyQuantiles
	// Sources counts estimate answers by serving tier; nil outside
	// estimate runs.
	Sources map[string]int
	// EstimateChecked and the error fields report the estimate run's
	// accuracy spot-check: surrogate answers re-simulated for ground truth.
	EstimateChecked     int
	EstimateUPCMAEPct   float64
	EstimateUPCWorstPct float64
}

// LatencyQuantiles is one mode's latency profile within a load run.
type LatencyQuantiles struct {
	N             int
	P50, P95, P99 time.Duration
}

// Deduped is the number of OK responses served without a fresh
// simulation (memo joins plus disk hits).
func (r LoadReport) Deduped() int {
	return r.Resolutions["memo"] + r.Resolutions["disk"]
}

// String renders the stable one-line summary CI greps
// (requests=… ok=… failed=… status429=… retries=… deduped=…), the equally
// stable mode breakdown (modes sampled=… full=…), the estimate tier split
// when present (estimate surrogate=… simulated=…), then the latency
// percentiles — aggregate and per mode — and the per-resolution breakdown.
func (r LoadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests=%d ok=%d failed=%d status429=%d retries=%d deduped=%d\n",
		r.Requests, r.OK, r.Failed, r.Status429, r.Retries, r.Deduped())
	fmt.Fprintf(&b, "modes sampled=%d full=%d\n", r.Modes["sampled"], r.Modes["full"])
	if r.Sources != nil {
		fmt.Fprintf(&b, "estimate surrogate=%d simulated=%d\n",
			r.Sources["surrogate"], r.Sources["simulated"])
	}
	fmt.Fprintf(&b, "latency p50=%s p90=%s p99=%s max=%s elapsed=%s\n",
		r.P50.Round(time.Millisecond), r.P90.Round(time.Millisecond),
		r.P99.Round(time.Millisecond), r.Max.Round(time.Millisecond),
		r.Elapsed.Round(time.Millisecond))
	modeKeys := make([]string, 0, len(r.ModeLatency))
	for k := range r.ModeLatency {
		modeKeys = append(modeKeys, k)
	}
	sort.Strings(modeKeys)
	for _, k := range modeKeys {
		q := r.ModeLatency[k]
		// Microsecond rounding: the estimate fast path is sub-millisecond.
		fmt.Fprintf(&b, "latency mode=%s n=%d p50=%s p95=%s p99=%s\n",
			k, q.N, q.P50.Round(time.Microsecond), q.P95.Round(time.Microsecond),
			q.P99.Round(time.Microsecond))
	}
	if r.EstimateChecked > 0 {
		fmt.Fprintf(&b, "estimate_accuracy checked=%d upc_mae=%.2f%% upc_worst=%.2f%%\n",
			r.EstimateChecked, r.EstimateUPCMAEPct, r.EstimateUPCWorstPct)
	}
	keys := make([]string, 0, len(r.Resolutions))
	for k := range r.Resolutions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "resolution %s=%d\n", k, r.Resolutions[k])
	}
	return b.String()
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// quantilesOf sorts lats in place and summarizes the p50/p95/p99 profile.
func quantilesOf(lats []time.Duration) LatencyQuantiles {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return LatencyQuantiles{
		N:   len(lats),
		P50: percentile(lats, 0.50),
		P95: percentile(lats, 0.95),
		P99: percentile(lats, 0.99),
	}
}

// setLatencies sorts lats in place and fills the report's aggregate
// latency profile, then the per-mode profiles from byMode.
func (r *LoadReport) setLatencies(lats []time.Duration, byMode map[string][]time.Duration) {
	q := quantilesOf(lats)
	r.P50, r.P90, r.P95, r.P99 = q.P50, percentile(lats, 0.90), q.P95, q.P99
	if n := len(lats); n > 0 {
		r.Max = lats[n-1]
	}
	r.ModeLatency = make(map[string]LatencyQuantiles, len(byMode))
	for k, lats := range byMode {
		r.ModeLatency[k] = quantilesOf(lats)
	}
}

// RunLoad replays cfg against the daemon at base via /v1/simulate: the
// sweep-shaped mix (Requests draws over Unique points) that demonstrates
// the engine collapsing repeats, and — unpaced against a small queue — the
// 429/Retry-After backpressure contract.
func RunLoad(client *Client, cfg LoadConfig) (LoadReport, error) {
	cfg = cfg.withDefaults()
	pool := cfg.points()
	if len(pool) == 0 {
		return LoadReport{}, fmt.Errorf("server: load config yields no design points")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	reqs := make([]experiments.PointRequest, cfg.Requests)
	for i := range reqs {
		reqs[i] = pool[i%len(pool)]
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })

	// Optional pacing: one shared ticker gate at the target rate.
	var gate <-chan time.Time
	var ticker *time.Ticker
	if cfg.RPS > 0 {
		ticker = time.NewTicker(time.Second / time.Duration(cfg.RPS))
		defer ticker.Stop()
		gate = ticker.C
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		modeLats  = map[string][]time.Duration{}
		report    = LoadReport{Requests: cfg.Requests, Resolutions: map[string]int{}, Modes: map[string]int{}}
	)
	jobs := make(chan experiments.PointRequest)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pt := range jobs {
				if gate != nil {
					<-gate
				}
				t0 := time.Now()
				resp, retries, n429, err := simulateWithRetry(client, pt, cfg)
				lat := time.Since(t0)
				mu.Lock()
				report.Retries += retries
				report.Status429 += n429
				if err != nil {
					report.Failed++
				} else {
					report.OK++
					report.Resolutions[resp.Resolution]++
					report.Modes[resp.Mode]++
					latencies = append(latencies, lat)
					modeLats[resp.Mode] = append(modeLats[resp.Mode], lat)
				}
				mu.Unlock()
			}
		}()
	}
	for _, pt := range reqs {
		jobs <- pt
	}
	close(jobs)
	wg.Wait()
	report.Elapsed = time.Since(start)

	report.setLatencies(latencies, modeLats)
	return report, nil
}

// simulateWithRetry issues one request, retrying 429s per the config and
// counting how often backpressure was observed.
func simulateWithRetry(client *Client, pt experiments.PointRequest, cfg LoadConfig) (resp *SimulateResponse, retries, n429 int, err error) {
	for attempt := 0; ; attempt++ {
		resp, err = client.Simulate(SimulateRequest{PointRequest: pt, TimeoutMS: cfg.TimeoutMS})
		if err == nil {
			return resp, retries, n429, nil
		}
		se, ok := err.(*StatusError)
		if !ok || se.Code != 429 {
			return nil, retries, n429, err
		}
		n429++
		if cfg.Retries < 0 || attempt >= cfg.Retries {
			return nil, retries, n429, err
		}
		retries++
		delay := se.RetryAfter
		if delay <= 0 {
			delay = 100 * time.Millisecond
		}
		if cfg.RetryDelay > 0 && delay > cfg.RetryDelay {
			delay = cfg.RetryDelay
		}
		time.Sleep(delay)
	}
}

// RunEstimate replays the mix against /v1/estimate: the same
// Requests-over-Unique draw, each answered by whichever tier the
// confidence gate picks. Repeat draws are the fast tier's best case — the
// first request on a cold point falls through to simulation, the result
// lands in the warehouse and trains the model, and every later identical
// draw is a sub-millisecond exact hit. Afterward up to EstimateChecks
// surrogate-served points are re-simulated to spot-check the fast tier's
// accuracy against ground truth.
func RunEstimate(client *Client, cfg LoadConfig) (LoadReport, error) {
	cfg = cfg.withDefaults()
	pool := cfg.points()
	if len(pool) == 0 {
		return LoadReport{}, fmt.Errorf("server: load config yields no design points")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	reqs := make([]experiments.PointRequest, cfg.Requests)
	for i := range reqs {
		reqs[i] = pool[i%len(pool)]
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })

	type surrogateHit struct {
		pt  experiments.PointRequest
		upc float64
	}
	var (
		mu        sync.Mutex
		latencies []time.Duration
		modeLats  = map[string][]time.Duration{}
		hits      = map[string]surrogateHit{}
		report    = LoadReport{
			Requests:    cfg.Requests,
			Resolutions: map[string]int{},
			Modes:       map[string]int{},
			Sources:     map[string]int{},
		}
	)
	jobs := make(chan experiments.PointRequest)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pt := range jobs {
				t0 := time.Now()
				resp, retries, n429, err := estimateWithRetry(client, pt, cfg)
				lat := time.Since(t0)
				mu.Lock()
				report.Retries += retries
				report.Status429 += n429
				if err != nil {
					report.Failed++
				} else {
					report.OK++
					report.Sources[resp.Source]++
					if resp.Source == "simulated" {
						report.Resolutions[resp.Resolution]++
						report.Modes[resp.Mode]++
					} else {
						key := fmt.Sprintf("%s/%s/%d", pt.Workload, pt.Scheme, pt.Capacity)
						if _, dup := hits[key]; !dup {
							hits[key] = surrogateHit{pt: pt, upc: resp.Metrics["upc"]}
						}
					}
					latencies = append(latencies, lat)
					modeLats[resp.Source] = append(modeLats[resp.Source], lat)
				}
				mu.Unlock()
			}
		}()
	}
	for _, pt := range reqs {
		jobs <- pt
	}
	close(jobs)
	wg.Wait()
	report.Elapsed = time.Since(start)

	report.setLatencies(latencies, modeLats)

	// Accuracy spot-check: ask /v1/simulate for ground truth on a few of
	// the points the surrogate answered. Cheap — these points are in the
	// warehouse by construction, so the re-simulation is a disk/memo hit.
	if cfg.EstimateChecks > 0 && len(hits) > 0 {
		keys := make([]string, 0, len(hits))
		for k := range hits {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if len(keys) > cfg.EstimateChecks {
			keys = keys[:cfg.EstimateChecks]
		}
		for _, k := range keys {
			h := hits[k]
			sim, err := client.Simulate(SimulateRequest{PointRequest: h.pt, TimeoutMS: cfg.TimeoutMS})
			if err != nil {
				continue
			}
			truth := sim.Result.Metrics.UPC
			if truth == 0 {
				continue
			}
			e := 100 * absFloat(h.upc-truth) / absFloat(truth)
			report.EstimateChecked++
			report.EstimateUPCMAEPct += e
			if e > report.EstimateUPCWorstPct {
				report.EstimateUPCWorstPct = e
			}
		}
		if report.EstimateChecked > 0 {
			report.EstimateUPCMAEPct /= float64(report.EstimateChecked)
		}
	}
	return report, nil
}

func absFloat(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// estimateWithRetry issues one estimate, retrying 429s (which only a
// fall-through can produce) per the config.
func estimateWithRetry(client *Client, pt experiments.PointRequest, cfg LoadConfig) (resp *EstimateResponse, retries, n429 int, err error) {
	for attempt := 0; ; attempt++ {
		resp, err = client.Estimate(EstimateRequest{
			PointRequest:  pt,
			MinConfidence: cfg.MinConfidence,
			TimeoutMS:     cfg.TimeoutMS,
		})
		if err == nil {
			return resp, retries, n429, nil
		}
		se, ok := err.(*StatusError)
		if !ok || se.Code != 429 {
			return nil, retries, n429, err
		}
		n429++
		if cfg.Retries < 0 || attempt >= cfg.Retries {
			return nil, retries, n429, err
		}
		retries++
		delay := se.RetryAfter
		if delay <= 0 {
			delay = 100 * time.Millisecond
		}
		if cfg.RetryDelay > 0 && delay > cfg.RetryDelay {
			delay = cfg.RetryDelay
		}
		time.Sleep(delay)
	}
}

// RunSweep replays the same mix as one /v1/sweep batch, checking the
// stream's index integrity: every index answered exactly once.
func RunSweep(client *Client, cfg LoadConfig) (LoadReport, error) {
	cfg = cfg.withDefaults()
	pool := cfg.points()
	if len(pool) == 0 {
		return LoadReport{}, fmt.Errorf("server: load config yields no design points")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	reqs := make([]experiments.PointRequest, cfg.Requests)
	for i := range reqs {
		reqs[i] = pool[i%len(pool)]
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })

	report := LoadReport{Requests: cfg.Requests, Resolutions: map[string]int{}, Modes: map[string]int{}}
	seen := make([]bool, len(reqs))
	start := time.Now()
	err := client.Sweep(SweepRequest{Points: reqs, TimeoutMS: cfg.TimeoutMS}, func(line SweepLine) error {
		if line.Index < 0 || line.Index >= len(seen) {
			return fmt.Errorf("server: sweep answered out-of-range index %d", line.Index)
		}
		if seen[line.Index] {
			return fmt.Errorf("server: sweep answered index %d twice", line.Index)
		}
		seen[line.Index] = true
		if line.Error != "" {
			report.Failed++
			return nil
		}
		report.OK++
		report.Resolutions[line.Resolution]++
		report.Modes[line.Mode]++
		return nil
	})
	report.Elapsed = time.Since(start)
	if err != nil {
		return report, err
	}
	for i, ok := range seen {
		if !ok {
			return report, fmt.Errorf("server: sweep never answered index %d", i)
		}
	}
	return report, nil
}
