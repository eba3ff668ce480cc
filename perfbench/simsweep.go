package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"uopsim"
	"uopsim/internal/experiments"
	"uopsim/internal/workload"
)

// expectedDigestsJSON maps each sim_sweep point (see simPoint.key) to the
// SHA-256 of its JSON-encoded Metrics. A perf-only change leaves every
// digest unchanged; a change that moves a simulated result must say why
// and regenerate the file (go test -run TestExpectedDigests -update).
//
//go:embed expected_digests.json
var expectedDigestsJSON []byte

// simPoint is one sim_sweep design point.
type simPoint struct {
	workload string
	scheme   uopsim.Scheme
	capacity int
	warmup   uint64
	measure  uint64
}

func (p simPoint) key() string {
	return fmt.Sprintf("%s/%s/%d/%d/%d", p.workload, p.scheme.Name, p.capacity, p.warmup, p.measure)
}

// request is the point's wire form, for the in-process layer probes.
func (p simPoint) request() experiments.PointRequest {
	return experiments.PointRequest{Workload: p.workload, Scheme: p.scheme.Name, Capacity: p.capacity,
		MaxEntries: 2, Warmup: p.warmup, Measure: p.measure}
}

func simPoints(s scale) []simPoint {
	var pts []simPoint
	for _, wl := range s.simWorkloads {
		for _, sc := range uopsim.Schemes(2) {
			pts = append(pts, simPoint{wl, sc, simCapacity, simWarmup, simMeasure})
		}
	}
	return pts
}

func metricsDigest(m uopsim.Metrics) string {
	b, err := json.Marshal(m)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runSimSweep is the closed-loop simulator workload: whole passes over the
// point set, in a seed-chosen order, until the measured seconds are used.
func runSimSweep(c config, runDir string, rep *report, tr *tracer) error {
	s := c.scale
	want := map[string]string{}
	if err := json.Unmarshal(expectedDigestsJSON, &want); err != nil {
		return fmt.Errorf("expected_digests.json: %w", err)
	}

	// Set-up is building the workload programs; repeat it and keep the
	// median. The facade's shared builds are then filled so the measured
	// loop starts at the first cycle.
	var setups []float64
	for i := 0; i < s.setupRepeats; i++ {
		t0 := time.Now()
		for _, name := range s.simWorkloads {
			prof, err := workload.ByName(name)
			if err != nil {
				return err
			}
			if _, err := workload.Build(prof); err != nil {
				return err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	for _, name := range s.simWorkloads {
		if _, err := workload.Shared(name); err != nil {
			return err
		}
	}
	rep.set("setup_s", median(setups), len(setups))

	pts := simPoints(s)
	rng := rand.New(rand.NewSource(c.seed))
	var (
		passLat  [][]float64 // per pass, each point's build+run time
		passSecs []float64
		snaps    = make([]uopsim.StatsSnapshot, len(pts))
		results  = make([]experiments.PointResult, len(pts))
		profPath = filepath.Join(runDir, "cpu.pprof")
		profFile *os.File
		profWork simWork
		quiet    = newTracer(false)
		done     int
	)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(time.Duration(c.seconds * float64(time.Second)))
	// A traced run leaves its first two passes unprofiled and untraced: the
	// first is cold and gives the throughput and allocation figures, the
	// second is the warm reference the tracing overhead is measured
	// against. Every later pass is profiled and traced.
	const tracedFrom = 2
	minPasses := 1
	if c.trace {
		minPasses = tracedFrom + 1
	}
	for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
		if c.trace && pass == tracedFrom {
			var err error
			if profFile, err = os.Create(profPath); err != nil {
				return err
			}
			if err := pprof.StartCPUProfile(profFile); err != nil {
				profFile.Close()
				return err
			}
		}
		ptr := tr
		if pass < tracedFrom {
			ptr = quiet
		}
		t0 := time.Now()
		var lat []float64
		for _, i := range rng.Perm(len(pts)) {
			p := pts[i]
			id := ptr.newID()
			a := time.Now()
			sim, err := uopsim.NewSimulator(p.scheme.Configure(p.capacity), p.workload)
			if err != nil {
				return err
			}
			b := time.Now()
			m, err := sim.RunMeasured(p.warmup, p.measure)
			if err != nil {
				return fmt.Errorf("%s: %w", p.key(), err)
			}
			snap := sim.StatsSnapshot()
			e := time.Now()
			d := metricsDigest(m)
			f := time.Now()
			ptr.add("sim.build", 0, id, id, a, b)
			ptr.add("sim.run", 0, id, id, b, e)
			ptr.add("sim.digest", 0, id, id, e, f)
			ptr.add("point", id, 0, id, a, f)

			rep.attempted++
			if d != want[p.key()] {
				rep.fail("%s: metrics digest %s, want %s", p.key(), d, want[p.key()])
			}
			lat = append(lat, ms(e.Sub(a)))
			done++
			if pass == 0 {
				snaps[i] = snap
				prof, _ := workload.ByName(p.workload)
				results[i] = experiments.PointResult{Suite: prof.Suite, Metrics: m, Snapshot: snap}
			} else if pass >= tracedFrom {
				profWork.add(snap)
			}
		}
		passSecs = append(passSecs, time.Since(t0).Seconds())
		passLat = append(passLat, lat)
		if pass == 0 {
			runtime.ReadMemStats(&m1)
		}
	}
	if profFile != nil {
		pprof.StopCPUProfile()
		if err := profFile.Close(); err != nil {
			return err
		}
	}

	var all simWork
	for _, sn := range snaps {
		all.add(sn)
	}
	all.report(rep)
	rss, err := peakRSSMB(strconv.Itoa(os.Getpid()))
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", rss, 1)
	// Each statistic is taken per pass and the median over passes is
	// reported, so a burst of noise from other tenants of a shared host
	// moves one pass, not the result.
	var p50s, p95s, rates []float64
	for i, lat := range passLat {
		p50s = append(p50s, median(lat))
		p95s = append(p95s, p95(lat))
		rates = append(rates, float64(len(lat))/passSecs[i])
	}
	rep.set("op_p50_ms", median(p50s), done)
	rep.set("op.p95_ms", median(p95s), done)
	rep.set("ops_per_s", median(rates), done)

	// Throughput and allocation come from the first pass, which a traced
	// run leaves unprofiled.
	kinst := float64(all.insts) / 1000
	rep.set("sim.insts_per_s", kinst*1000/passSecs[0], len(pts))
	rep.set("sim.alloc_bytes_per_kinst", float64(m1.TotalAlloc-m0.TotalAlloc)/kinst, len(pts))
	rep.set("sim.allocs_per_kinst", float64(m1.Mallocs-m0.Mallocs)/kinst, len(pts))
	if !c.trace {
		return nil
	}
	rep.set("trace.overhead_ratio", median(passSecs[tracedFrom:])/passSecs[tracedFrom-1], len(passSecs)-1)
	if err := attributeProfile(profPath, profWork, rep); err != nil {
		return err
	}
	items := make([]probeItem, len(pts))
	for i, p := range pts {
		items[i] = probeItem{req: p.request(), res: results[i]}
	}
	return probeLayers(runDir, items, rep)
}

// simWork sums the registry counters the per-layer metrics normalise by.
type simWork struct {
	insts, cycles, mispredicts, ocHits, ocLookups, uopsOC, uopsIC, uopsLC,
	decoded, l1iMisses, robStalls, tageLookups, pwBuilt, retired uint64
}

func (w *simWork) add(s uopsim.StatsSnapshot) {
	w.insts += s.Counter("dispatch.insts")
	w.cycles += uint64(s.Value("pipeline.cycle"))
	w.mispredicts += s.Counter("bpu.mispredicts")
	w.ocHits += s.Counter("oc.hits")
	w.ocLookups += s.Counter("oc.lookups")
	w.uopsOC += s.Counter("dispatch.uops.oc")
	w.uopsIC += s.Counter("dispatch.uops.ic")
	w.uopsLC += s.Counter("dispatch.uops.lc")
	w.decoded += s.Counter("decode.insts")
	w.l1iMisses += uint64(s.Value("mem.l1i.misses"))
	w.robStalls += s.Counter("backend.rob.stalls")
	w.tageLookups += s.Counter("bpu.tage.lookups")
	w.pwBuilt += s.Counter("bpu.pw.built")
	w.retired += s.Counter("backend.uops.retired")
}

// report sets the simulated-work metrics. They are counts of modelled
// events, so the same points give the same values on every run.
func (w simWork) report(rep *report) {
	kinst := float64(w.insts) / 1000
	n := int(w.insts)
	rep.set("sim.cycles_per_kinst", ratio(float64(w.cycles), kinst), n)
	rep.set("bpred.mpki", ratio(float64(w.mispredicts), kinst), n)
	rep.set("uopcache.hit_rate", ratio(float64(w.ocHits), float64(w.ocLookups)), int(w.ocLookups))
	rep.set("uopcache.fetch_ratio", ratio(float64(w.uopsOC), float64(w.uopsOC+w.uopsIC)), int(w.uopsOC+w.uopsIC))
	rep.set("loopcache.uops_per_kinst", ratio(float64(w.uopsLC), kinst), n)
	rep.set("decode.insts_per_kinst", ratio(float64(w.decoded), kinst), n)
	rep.set("mem.l1i_mpki", ratio(float64(w.l1iMisses), kinst), n)
	rep.set("backend.rob_stalls_per_kcycle", ratio(float64(w.robStalls), float64(w.cycles)/1000), int(w.cycles))
}
