// Command perfbench is the repository's benchmark: one command that runs a
// seeded workload against the simulator or the deployed service, checks
// every output, and prints one JSON result line.
//
// Workloads (see BENCHMARK.json for the one-line reason each exists).
// serve_warm and serve_mixed run but are not listed there. serve_warm's
// few-millisecond requests are dominated by cross-process wake-ups, and on
// a shared two-CPU host its median latency and capacity moved by a quarter
// between runs whenever a neighbour loaded the machine, too far to gate a
// change on. serve_mixed refuses a varying share of its stored-point
// requests with 429 while a sweep fills a shard's admission queue (a known
// defect of the service); it reports them as failures, so its failure
// count differs from run to run, and a gating workload must have none.
//
//   - sim_sweep: the Table II benchmark set {bm_cc, nutch, redis, bm_x64}
//     × the five schemes at 2048 uops, full detail (30k warmup, 100k
//     measured), one simulation at a time through the uopsim facade. No
//     store, no HTTP.
//   - serve_warm: uopgate in front of two uopsimd shards (-workers 1 each)
//     over warehouses populated in advance; an open loop of stored-point
//     /v1/simulate and unstored-neighbour /v1/estimate requests, then a
//     short closed-loop capacity phase on two connections.
//   - serve_sweep: the same cluster and fixture; one connection streams
//     back-to-back /v1/sweep batches of never-seen points, which simulate,
//     are stored and feed the surrogate.
//   - serve_mixed: serve_sweep's sweep connection beside a second one that
//     replays the serve_warm open loop.
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// the same workload runs with spans, counters and (for sim_sweep) a CPU
// profile and the result carries the per-layer metrics instead.
//
// Usage, from the repository root (perfbench/run.py builds the binaries
// and passes -bin and -work):
//
//	python3 perfbench/run.py --workload serve_sweep --seed 7 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef is one named metric with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, on every workload.
// The operation behind op_p50_ms is the workload's unit of user-visible work:
// one full-detail design point for sim_sweep, one stored-point
// /v1/simulate through the gateway (timed from its due time) for
// serve_warm, one /v1/sweep batch of never-seen points for serve_sweep and
// serve_mixed. ops_per_s is design points per second for sim_sweep, the
// closed-loop warm capacity for serve_warm and sweep points per second for
// serve_sweep and serve_mixed.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// simLayers are the simulator layers the CPU profile is split into, in
// report order; see layerOfPackage for the package table.
var simLayers = []string{"pipeline", "bpred", "fetch", "uopcache", "decode", "loopcache",
	"uopq", "backend", "mem", "program", "power", "stats"}

// perLayer are the metrics every traced run reports, on every workload. A
// layer a workload never reaches reports 0 (for example the gateway hop on
// sim_sweep, or simulator host time on serve_warm, which simulates
// nothing).
var perLayer = func() []metricDef {
	var ds []metricDef
	for _, l := range simLayers {
		ds = append(ds, metricDef{l + ".host_ns_per_kinst", "ns"})
	}
	ds = append(ds,
		// The operation's tail is reported here rather than gated: on a
		// shared two-CPU host the serve_warm p95 moved by a third between
		// runs whenever a neighbour loaded the machine.
		metricDef{"op.p95_ms", "ms"},
		metricDef{"runtime.gc_ns_per_kinst", "ns"},
		metricDef{"runtime.alloc_ns_per_kinst", "ns"},
		metricDef{"runtime.copy_ns_per_kinst", "ns"},
		metricDef{"unattributed.host_ns_per_kinst", "ns"},
		metricDef{"harness.host_ns_per_kinst", "ns"},
		metricDef{"bpred.host_ns_per_lookup", "ns"},
		metricDef{"fetch.host_ns_per_pw", "ns"},
		metricDef{"uopcache.host_ns_per_lookup", "ns"},
		metricDef{"decode.host_ns_per_inst", "ns"},
		metricDef{"backend.host_ns_per_uop", "ns"},
		metricDef{"pipeline.host_ns_per_cycle", "ns"},
		metricDef{"sim.insts_per_s", "1/s"},
		metricDef{"sim.alloc_bytes_per_kinst", "B"},
		metricDef{"sim.allocs_per_kinst", "count"},
		metricDef{"sim.cycles_per_kinst", "count"},
		metricDef{"bpred.mpki", "count"},
		metricDef{"uopcache.hit_rate", "ratio"},
		metricDef{"uopcache.fetch_ratio", "ratio"},
		metricDef{"loopcache.uops_per_kinst", "count"},
		metricDef{"decode.insts_per_kinst", "count"},
		metricDef{"mem.l1i_mpki", "count"},
		metricDef{"backend.rob_stalls_per_kcycle", "count"},
		metricDef{"serve.warm_p50_ms", "ms"},
		metricDef{"serve.warm_p95_ms", "ms"},
		metricDef{"serve.estimate_p50_ms", "ms"},
		metricDef{"serve.estimate_p95_ms", "ms"},
		metricDef{"serve.failed_ratio", "ratio"},
		metricDef{"cluster.hop_p50_ms", "ms"},
		metricDef{"cluster.hop_p95_ms", "ms"},
		metricDef{"cluster.balance", "ratio"},
		metricDef{"cluster.spills", "count"},
		metricDef{"server.direct_warm_p50_ms", "ms"},
		metricDef{"server.encode_us", "us"},
		metricDef{"server.response_bytes", "B"},
		metricDef{"client.decode_us", "us"},
		metricDef{"server.admission_rejected_ratio", "ratio"},
		metricDef{"runcache.store_hit_ratio", "ratio"},
		metricDef{"runcache.disk_hit_ratio", "ratio"},
		metricDef{"runcache.memo_hit_us", "us"},
		metricDef{"runcache.simulated", "count"},
		metricDef{"experiments.fingerprint_us", "us"},
		metricDef{"experiments.features_us", "us"},
		metricDef{"warehouse.put_us", "us"},
		metricDef{"warehouse.load_us", "us"},
		metricDef{"warehouse.open_s", "s"},
		metricDef{"surrogate.predict_p50_us", "us"},
		metricDef{"surrogate.predict_p95_us", "us"},
		metricDef{"surrogate.served_ratio", "ratio"},
		metricDef{"surrogate.retrains", "count"},
		metricDef{"surrogate.fit_s", "s"},
		metricDef{"loadgen.late_p95_ms", "ms"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
	for _, s := range spanNames {
		ds = append(ds, metricDef{"span." + s + ".self_us", "us"})
	}
	return ds
}()

// config is one invocation: the contract flags plus where to find the
// service binaries and where to put run state.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string
	work     string
	scale    scale
}

// The workloads' fixed sizes.
const (
	simCapacity    = 2048    // sim_sweep's uop cache capacity
	simWarmup      = 30_000  // sim_sweep's warmup instructions per point
	simMeasure     = 100_000 // sim_sweep's measured instructions per point
	fixtureWarmup  = 2_000   // stored points' warmup instructions
	fixtureMeasure = 6_000   // stored points' measured instructions
	openLoopRate   = 40      // requests per second on the open-loop connection
	estimateShare  = 0.2     // fraction of open-loop requests that are estimates
	capacityShare  = 0.2     // fraction of serve_warm's seconds spent in the closed-loop phase
)

// scale holds the sizes the smoke test shrinks; fullScale is what the
// command runs.
type scale struct {
	simWorkloads []string
	setupRepeats int
	fixtureCaps  []int
	sweepBatch   int
	hopPairs     int
}

var fullScale = scale{
	simWorkloads: []string{"bm_cc", "nutch", "redis", "bm_x64"},
	setupRepeats: 11,
	fixtureCaps:  []int{1024, 2048, 4096},
	sweepBatch:   16,
	hopPairs:     60,
}

// report accumulates one run's metrics, sample counts and check failures.
type report struct {
	values    map[string]float64
	samples   map[string]int
	attempted int
	failed    int
	problems  []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *report) set(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
	r.samples[name] = n
}

// fail records an output-check failure: it counts toward failed and makes
// the run incorrect. Refusals such as 429 count toward failed only.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
	samples   map[string]int
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "", "sim_sweep, serve_warm, serve_sweep or serve_mixed")
	flag.Int64Var(&c.seed, "seed", 1, "seed for the generated request stream")
	flag.Float64Var(&c.seconds, "seconds", 30, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&c.bin, "bin", "", "directory holding the uopsimd and uopgate binaries")
	flag.StringVar(&c.work, "work", "", "directory for run state (warehouses, logs, spans)")
	flag.Parse()
	c.trace = *traceFlag != 0
	c.scale = fullScale
	stopOnSignal()
	res, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and assembles the result. Every metric of the
// run's set is present; a missing end-to-end metric is an error.
func run(c config) (*resultOut, error) {
	if c.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	if c.work == "" {
		c.work = filepath.Join(os.TempDir(), "perfbench")
	}
	runDir := filepath.Join(c.work, fmt.Sprintf("%s-%d-%d", c.workload, c.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	tr := newTracer(c.trace)
	rep := newReport()
	var err error
	switch c.workload {
	case "sim_sweep":
		err = runSimSweep(c, runDir, rep, tr)
	case "serve_warm", "serve_sweep", "serve_mixed":
		err = runServe(c, runDir, rep, tr)
	default:
		return nil, fmt.Errorf("unknown -workload %q (want sim_sweep, serve_warm, serve_sweep or serve_mixed)", c.workload)
	}
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if c.trace {
		tr.report(rep)
		if err := tr.write(filepath.Join(c.work, fmt.Sprintf("spans-%s-%d.jsonl", c.workload, c.seed))); err != nil {
			return nil, err
		}
		defs = perLayer
	}
	out := &resultOut{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
		samples:   rep.samples,
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok && !c.trace {
			return nil, fmt.Errorf("workload %s did not measure %s", c.workload, d.name)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Printf("%-36s %16s %-5s n=%d\n", d.name, strconv.FormatFloat(v, 'g', 8, 64), d.unit, rep.samples[d.name])
	}
	fmt.Printf("attempted=%d failed=%d correct=%v\n", out.Attempted, out.Failed, out.Correct)
	if out.Attempted < 1 {
		return nil, fmt.Errorf("workload %s attempted nothing", c.workload)
	}
	return out, nil
}

// quantile is the nearest-rank q-quantile of xs (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windows is how many equal time windows a serve run's samples are split
// into; see series.
const windows = 4

// series is a run's samples tagged with when they were taken. Its
// statistics are taken per time window and the median over the windows is
// reported, so a burst of noise from other tenants of a shared host moves
// one window, not the result.
type series struct {
	at []time.Duration
	v  []float64
}

func (s *series) add(at time.Duration, v float64) {
	s.at = append(s.at, at)
	s.v = append(s.v, v)
}

func (s *series) len() int { return len(s.v) }

func (s *series) merge(o series) {
	s.at = append(s.at, o.at...)
	s.v = append(s.v, o.v...)
}

// split returns the samples of each of k equal windows of [0, span);
// samples outside it are dropped.
func (s *series) split(span time.Duration, k int) [][]float64 {
	out := make([][]float64, k)
	for i, at := range s.at {
		if at >= 0 && at < span {
			w := int(int64(at) * int64(k) / int64(span))
			out[w] = append(out[w], s.v[i])
		}
	}
	return out
}

// windowed is the median over the windows of stat applied to each.
func (s *series) windowed(span time.Duration, k int, stat func([]float64) float64) float64 {
	var per []float64
	for _, w := range s.split(span, k) {
		if len(w) > 0 {
			per = append(per, stat(w))
		}
	}
	return median(per)
}

// windowRate is the median over the windows of samples per second.
func (s *series) windowRate(span time.Duration, k int) float64 {
	var per []float64
	for _, w := range s.split(span, k) {
		per = append(per, float64(len(w))/(span.Seconds()/float64(k)))
	}
	return median(per)
}

func p95(xs []float64) float64 { return quantile(xs, 0.95) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads a process's peak resident set (VmHWM) from /proc.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %g kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
