package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"uopsim"
	"uopsim/internal/cluster"
	"uopsim/internal/experiments"
	"uopsim/internal/runcache"
	"uopsim/internal/server"
	"uopsim/internal/warehouse"
)

// shards is the deployed topology: two uopsimd shards with one worker
// each, so two simulation threads on a two-CPU host, behind one uopgate.
const shards = 2

// fixturePoint is one design point stored in every shard's warehouse
// before the cluster starts.
type fixturePoint struct {
	req  experiments.PointRequest
	fp   runcache.Fingerprint
	res  experiments.PointResult
	blob []byte
}

// buildFixture simulates every workload × scheme × fixture capacity at the
// fixture run lengths and stores each result in every shard's warehouse,
// so any shard's surrogate has neighbours for any estimate and the owner
// of any stored point holds its blob.
func buildFixture(s scale, dirs []string) ([]fixturePoint, error) {
	var pts []fixturePoint
	for _, wl := range uopsim.WorkloadNames() {
		for _, sc := range uopsim.Schemes(2) {
			for _, capacity := range s.fixtureCaps {
				pts = append(pts, fixturePoint{req: experiments.PointRequest{Workload: wl, Scheme: sc.Name,
					Capacity: capacity, MaxEntries: 2, Warmup: fixtureWarmup, Measure: fixtureMeasure}})
			}
		}
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		errs = make([]error, len(pts))
	)
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(pts); i = int(next.Add(1) - 1) {
				p := &pts[i]
				res, _, err := p.req.Resolve(nil)
				if err == nil {
					p.res = res
					p.fp, err = p.req.Fingerprint()
				}
				if err == nil {
					p.blob, err = json.Marshal(res)
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	for _, dir := range dirs {
		ws, err := warehouse.Open(dir, warehouse.Options{})
		if err != nil {
			return nil, err
		}
		for _, p := range pts {
			feat, err := p.req.Features()
			if err == nil {
				err = ws.Put(p.fp, feat, p.blob)
			}
			if err != nil {
				ws.Close()
				return nil, fmt.Errorf("fixture: %w", err)
			}
		}
		if err := ws.Close(); err != nil {
			return nil, err
		}
	}
	return pts, nil
}

// svc is the running cluster: the shard and gateway processes.
type svc struct {
	bin       string
	dir       string
	shardDirs []string
	shardURLs []string
	gwURL     string
	mu        sync.Mutex  // serialises spawn and stop with a signal-driven stop
	procs     []*exec.Cmd // shards first, gateway last; guarded by mu
}

// live is the cluster a termination signal must stop before exiting.
var live struct {
	sync.Mutex
	s *svc
}

// stopOnSignal stops the live cluster, if any, when the benchmark is
// interrupted or terminated, so no shard or gateway outlives it.
func stopOnSignal() {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		live.Lock()
		if live.s != nil {
			live.s.stop()
			os.RemoveAll(live.s.dir)
		}
		os.Exit(1)
	}()
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func newSvc(bin, dir string) (*svc, error) {
	s := &svc{bin: bin, dir: dir}
	for i := 0; i < shards+1; i++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		if i == shards {
			s.gwURL = "http://" + addr
			break
		}
		s.shardURLs = append(s.shardURLs, "http://"+addr)
		s.shardDirs = append(s.shardDirs, filepath.Join(dir, fmt.Sprintf("shard%d", i)))
	}
	return s, nil
}

func (s *svc) spawn(name string, args ...string) error {
	logf, err := os.OpenFile(filepath.Join(s.dir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(s.bin, strings.TrimRight(name, "0123456789")), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := cmd.Start(); err != nil {
		return err
	}
	s.procs = append(s.procs, cmd)
	return nil
}

// start launches the shards over their warehouses, waits until each
// answers /healthz, then launches the gateway and waits until it reports
// every shard alive. The returned duration is the whole set-up.
func (s *svc) start() (time.Duration, error) {
	t0 := time.Now()
	for i, u := range s.shardURLs {
		if err := s.spawn(fmt.Sprintf("uopsimd%d", i), "-addr", strings.TrimPrefix(u, "http://"),
			"-workers", "1", "-warehouse", s.shardDirs[i], "-node", fmt.Sprintf("shard%d", i)); err != nil {
			return 0, err
		}
	}
	for _, u := range s.shardURLs {
		if err := waitHealthy(u, func([]byte) bool { return true }); err != nil {
			return 0, err
		}
	}
	if err := s.spawn("uopgate", "-addr", strings.TrimPrefix(s.gwURL, "http://"),
		"-nodes", strings.Join(s.shardURLs, ",")); err != nil {
		return 0, err
	}
	err := waitHealthy(s.gwURL, func(body []byte) bool {
		var h cluster.GatewayHealthz
		return json.Unmarshal(body, &h) == nil && h.NodesAlive == shards
	})
	return time.Since(t0), err
}

var probeClient = &http.Client{Timeout: 2 * time.Second}

// waitHealthy polls url/healthz until it answers 200 with a body ok
// accepts.
func waitHealthy(url string, ok func([]byte) bool) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := probeClient.Get(url + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && ok(body) {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s did not become healthy within 60s", url)
}

// peakRSSMB sums the peak resident set of every running process.
func (s *svc) peakRSSMB() (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0.0
	for _, p := range s.procs {
		mb, err := peakRSSMB(strconv.Itoa(p.Process.Pid))
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// stop terminates the gateway, then the shards, and waits for each.
func (s *svc) stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.procs) - 1; i >= 0; i-- {
		p := s.procs[i]
		_ = p.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
		done := make(chan struct{})
		go func() { _ = p.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			_ = p.Process.Kill()
			<-done
		}
	}
	s.procs = nil
}

// op is one open-loop request: due is its offset from the loop's start.
type op struct {
	due      time.Duration
	estimate bool
	point    int                      // fixture index (the stored point, or the estimate's stored neighbour)
	req      experiments.PointRequest // the request sent
}

// openLoopOps draws the seed's open-loop stream: a fixed rate, most
// requests /v1/simulate of a stored point, the rest /v1/estimate of an
// unstored neighbour (a stored point at a capacity the fixture lacks).
// Stored points are introduced a share per statistics window and drawn
// uniformly from those introduced so far, so first touches (warehouse
// reads, the tail) spread over the run instead of crowding its start.
func openLoopOps(rng *rand.Rand, fix []fixturePoint, seconds float64) []op {
	n := int(openLoopRate * seconds)
	ops := make([]op, n)
	order := rng.Perm(len(fix))
	for i := range ops {
		known := (i*windows/n + 1) * len(fix) / windows
		o := op{due: time.Duration(float64(i) / openLoopRate * float64(time.Second)), point: order[rng.Intn(known)]}
		o.req = fix[o.point].req
		if rng.Float64() < estimateShare {
			o.estimate = true
			o.req.Capacity = []int{512, 8192}[rng.Intn(2)]
		}
		ops[i] = o
	}
	return ops
}

// sweepCandidates lists never-stored points, distinct by fingerprint, in a
// seed-chosen order: workload × scheme × capacity × run length, at a
// warmup the fixture does not use.
func sweepCandidates(rng *rand.Rand) []experiments.PointRequest {
	var out []experiments.PointRequest
	for _, wl := range uopsim.WorkloadNames() {
		for _, sc := range uopsim.Schemes(2) {
			for _, capacity := range []int{512, 1024, 2048, 4096, 8192} {
				for k := 0; k < 32; k++ {
					out = append(out, experiments.PointRequest{Workload: wl, Scheme: sc.Name, Capacity: capacity,
						MaxEntries: 2, Warmup: 1000, Measure: 2000 + 250*uint64(k)})
				}
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// newConn is one load-generator connection: at most one request in flight.
func newConn() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// call POSTs body to url and returns the status and raw response body,
// recording client.encode and http spans under parent.
func call(hc *http.Client, url string, body any, tr *tracer, parent int64) (int, []byte, error) {
	t0 := time.Now()
	buf, err := json.Marshal(body)
	t1 := time.Now()
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t2 := time.Now()
	if parent != 0 {
		tr.add("client.encode", 0, parent, parent, t0, t1)
		tr.add("http", 0, parent, parent, t1, t2)
	}
	return resp.StatusCode, out, err
}

// loadStats collects one serve run's answered-request latencies and
// counts. The open loop and the capacity phase each own one; merge is
// the caller's.
type loadStats struct {
	warm, estimate     series    // ms from due time, answered requests only, at due time
	warmTraced         []float64 // traced subset of warm, for the overhead ratio
	warmUntraced       []float64
	warmBytes          []float64 // size of each answered simulate's body
	late               []float64 // ms the send trailed its due time
	attempted, refused int
}

// checker validates answers against the fixture.
type checker struct {
	fix []fixturePoint
	mu  sync.Mutex
	rep *report
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rep.fail(format, args...)
}

// checkWarm verifies a /v1/simulate answer carries the requested point's
// fingerprint and a result bit-equal to its stored blob. The result is
// compared as compacted JSON bytes, which the stored blob already is.
func (c *checker) checkWarm(i int, body []byte) {
	var resp struct {
		Fingerprint string          `json:"fingerprint"`
		Result      json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		c.fail("simulate %s: undecodable answer: %v", c.fix[i].fp.Short(), err)
		return
	}
	if resp.Fingerprint != string(c.fix[i].fp) {
		c.fail("simulate %s: answer carries fingerprint %s", c.fix[i].fp.Short(), resp.Fingerprint)
		return
	}
	var got bytes.Buffer
	if err := json.Compact(&got, resp.Result); err != nil || !bytes.Equal(got.Bytes(), c.fix[i].blob) {
		c.fail("simulate %s: result differs from the stored blob", c.fix[i].fp.Short())
	}
}

func (c *checker) checkEstimate(body []byte) {
	var resp server.EstimateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		c.fail("estimate: undecodable answer: %v", err)
		return
	}
	if resp.Source != "surrogate" {
		c.fail("estimate %s/%s/%d: answered by %q, want surrogate", resp.Workload, resp.Scheme, resp.Capacity, resp.Source)
	}
}

// warmRequest sends one stored-point simulate or estimate and checks the
// answer. It returns whether the request was answered (200), when its
// answer had been read, before the check, and the answer's size.
func warmRequest(hc *http.Client, url string, o op, ck *checker, tr *tracer, traced bool) (bool, time.Time, int) {
	var id int64
	if traced {
		id = tr.newID()
	}
	t0 := time.Now()
	var (
		code int
		body []byte
		err  error
	)
	if o.estimate {
		code, body, err = call(hc, url+"/v1/estimate", server.EstimateRequest{PointRequest: o.req, MinConfidence: 1e-9}, tr, id)
	} else {
		code, body, err = call(hc, url+"/v1/simulate", server.SimulateRequest{PointRequest: o.req}, tr, id)
	}
	t1 := time.Now()
	answered := err == nil && code == http.StatusOK
	if answered && o.estimate {
		ck.checkEstimate(body)
	} else if answered {
		ck.checkWarm(o.point, body)
	}
	if traced {
		t2 := time.Now()
		tr.add("check", 0, id, id, t1, t2)
		tr.add("request", id, 0, id, t0, t2)
	}
	return answered, t1, len(body)
}

// spinWindow is how long before a request's due time the open loop stops
// sleeping and spins.
const spinWindow = time.Millisecond

// openLoop replays ops on one connection at their due times. A request is
// timed from when it was due, so a stall charges every request it delays.
func openLoop(hc *http.Client, url string, ops []op, ck *checker, tr *tracer) loadStats {
	var ls loadStats
	start := time.Now()
	for i, o := range ops {
		due := start.Add(o.due)
		// Sleep to just short of the due time and spin the rest: a timer
		// wake-up can trail by a millisecond, which would be charged to
		// the request.
		if d := time.Until(due) - spinWindow; d > 0 {
			time.Sleep(d)
		}
		for time.Now().Before(due) {
		}
		ls.late = append(ls.late, ms(time.Since(due)))
		ls.attempted++
		traced := tr.on && i%2 == 1
		ok, doneAt, size := warmRequest(hc, url, o, ck, tr, traced)
		lat := ms(doneAt.Sub(due))
		if !ok {
			ls.refused++
			continue
		}
		if o.estimate {
			ls.estimate.add(o.due, lat)
			continue
		}
		ls.warm.add(o.due, lat)
		ls.warmBytes = append(ls.warmBytes, float64(size))
		if traced {
			ls.warmTraced = append(ls.warmTraced, lat)
		} else {
			ls.warmUntraced = append(ls.warmUntraced, lat)
		}
	}
	return ls
}

// capacity runs a closed loop of stored-point simulates on conns
// connections for d and returns the answers' completion times.
func capacity(url string, fix []fixturePoint, rng *rand.Rand, conns int, d time.Duration, ck *checker) (series, loadStats) {
	seqs := make([][]int, conns)
	for c := range seqs {
		seqs[c] = rng.Perm(len(fix))
	}
	done := make([]series, conns)
	stats := make([]loadStats, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := newConn()
			for k := 0; time.Since(start) < d; k++ {
				i := seqs[c][k%len(fix)]
				stats[c].attempted++
				if ok, _, _ := warmRequest(hc, url, op{point: i, req: fix[i].req}, ck, nil, false); ok {
					done[c].add(time.Since(start), 1)
				} else {
					stats[c].refused++
				}
			}
		}(c)
	}
	wg.Wait()
	var all series
	var total loadStats
	for c := range stats {
		total.attempted += stats[c].attempted
		total.refused += stats[c].refused
		all.merge(done[c])
	}
	return all, total
}

// sweepStats is the sweep connection's outcome; series times are offsets
// from the loop's start.
type sweepStats struct {
	submitted int       // distinct points sent
	batchMS   series    // per batch, from send to the last line read
	points    series    // one sample per point answered, at its batch's end
	traced    []float64 // batch ms of the traced batches (every other one when tracing)
	untraced  []float64
}

// sweepLoop streams back-to-back /v1/sweep batches of never-seen points on
// one connection until stop is set, checking that every index comes back
// exactly once without an error line. A tracing run traces every other
// batch, so the untraced ones give the tracing overhead.
func sweepLoop(url string, cands []experiments.PointRequest, batch int, stop *atomic.Bool, ck *checker, tr *tracer) (sweepStats, error) {
	var st sweepStats
	hc := newConn()
	start := time.Now()
	for k := 0; !stop.Load(); k++ {
		if st.submitted+batch > len(cands) {
			return st, errors.New("sweep ran out of never-seen points; raise the candidate grid")
		}
		pts := cands[st.submitted : st.submitted+batch]
		st.submitted += batch
		var id int64
		traced := tr.on && k%2 == 1
		if traced {
			id = tr.newID()
		}
		t0 := time.Now()
		code, body, err := call(hc, url+"/v1/sweep", server.SweepRequest{Points: pts}, tr, id)
		if err != nil {
			return st, err
		}
		if code != http.StatusOK {
			ck.fail("sweep: HTTP %d: %s", code, bytes.TrimSpace(body))
			continue
		}
		t1 := time.Now()
		st.batchMS.add(t1.Sub(start), ms(t1.Sub(t0)))
		if traced {
			st.traced = append(st.traced, ms(t1.Sub(t0)))
		} else {
			st.untraced = append(st.untraced, ms(t1.Sub(t0)))
		}
		seen := make([]int, len(pts))
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			var line struct {
				Index  int             `json:"index"`
				Error  string          `json:"error"`
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				ck.fail("sweep: undecodable line: %v", err)
				continue
			}
			if line.Index < 0 || line.Index >= len(pts) {
				ck.fail("sweep: index %d out of range", line.Index)
				continue
			}
			seen[line.Index]++
			if line.Error != "" || len(line.Result) == 0 {
				ck.fail("sweep: point %d failed: %s", line.Index, line.Error)
			}
		}
		for i, n := range seen {
			if n != 1 {
				ck.fail("sweep: index %d answered %d times", i, n)
			} else {
				st.points.add(t1.Sub(start), 1)
			}
		}
		if traced {
			t2 := time.Now()
			tr.add("check", 0, id, id, t1, t2)
			tr.add("request", id, 0, id, t0, t2)
		}
	}
	return st, nil
}

// shardStats fetches every shard's /v1/stats.
func (s *svc) shardStats() ([]*server.StatsResponse, error) {
	out := make([]*server.StatsResponse, len(s.shardURLs))
	for i, u := range s.shardURLs {
		st, err := server.NewClient(u).Stats()
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

// runServe runs serve_warm, serve_sweep or serve_mixed: fixture, cluster
// set-up (repeated; the last start is kept), the measured load, then the
// checks and counters.
func runServe(c config, runDir string, rep *report, tr *tracer) error {
	s := c.scale
	sv, err := newSvc(c.bin, runDir)
	if err != nil {
		return err
	}
	live.Lock()
	live.s = sv
	live.Unlock()
	defer func() {
		live.Lock()
		live.s = nil
		live.Unlock()
		sv.stop()
	}()
	fix, err := buildFixture(s, sv.shardDirs)
	if err != nil {
		return err
	}

	var setups []float64
	for i := 0; i < s.setupRepeats; i++ {
		if i > 0 {
			sv.stop()
		}
		d, err := sv.start()
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	rep.set("setup_s", median(setups), len(setups))

	rng := rand.New(rand.NewSource(c.seed))
	ck := &checker{fix: fix, rep: rep}
	mixed := c.workload == "serve_mixed"
	sweeping := mixed || c.workload == "serve_sweep"
	openSecs := c.seconds
	if !sweeping {
		openSecs = c.seconds * (1 - capacityShare)
	}
	var ops []op
	if c.workload != "serve_sweep" {
		ops = openLoopOps(rng, fix, openSecs)
	}
	before, err := sv.shardStats()
	if err != nil {
		return err
	}
	runtime.GC() // collect the fixture's garbage now, not during the load

	openSpan := time.Duration(openSecs * float64(time.Second))
	var (
		ls       loadStats
		sw       sweepStats
		answers  series // serve_warm's capacity-phase completions
		capSpan  time.Duration
		sweepErr error
	)
	if sweeping {
		cands := sweepCandidates(rng)
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			sw, sweepErr = sweepLoop(sv.gwURL, cands, s.sweepBatch, &stop, ck, tr)
		}()
		if mixed {
			ls = openLoop(newConn(), sv.gwURL, ops, ck, tr)
		} else {
			time.Sleep(openSpan)
		}
		stop.Store(true)
		wg.Wait()
		if sweepErr != nil {
			return sweepErr
		}
		rep.attempted += sw.submitted
	} else {
		// The capacity phase comes last: its closed loop leaves garbage
		// and warm caches behind that would colour open-loop latencies.
		ls = openLoop(newConn(), sv.gwURL, ops, ck, tr)
		var capStats loadStats
		capSpan = time.Duration(c.seconds * capacityShare * float64(time.Second))
		answers, capStats = capacity(sv.gwURL, fix, rng, 2, capSpan, ck)
		rep.attempted += capStats.attempted
		rep.failed += capStats.refused
	}
	rep.attempted += ls.attempted
	rep.failed += ls.refused

	after, err := sv.shardStats()
	if err != nil {
		return err
	}
	gw, err := cluster.NewClient(sv.gwURL).Stats()
	if err != nil {
		return err
	}
	// Cluster-wide dedupe: every simulation is a distinct sweep point, and
	// nothing spilled. A mark-down means the load starved a health probe:
	// the run is invalid, not measured.
	if gw.Cluster.Engine.Simulated != uint64(sw.submitted) {
		ck.fail("dedupe: shards simulated %d points, %d distinct points were submitted", gw.Cluster.Engine.Simulated, sw.submitted)
	}
	if gw.Gateway.Spills != 0 || gw.Gateway.Markdowns != 0 {
		ck.fail("invalid run: %d spills and %d shard mark-downs under load", gw.Gateway.Spills, gw.Gateway.Markdowns)
	}
	rss, err := sv.peakRSSMB()
	if err != nil {
		return err
	}

	rep.set("peak_rss_mb", rss, shards+1)
	// serve_warm's operation is a stored-point simulate; serve_sweep's and
	// serve_mixed's is a sweep batch. Warm latency beside a running sweep is
	// bimodal (a request either finds its shard between sweep points or
	// queues behind up to four of them), so it spreads too far between seeds
	// to gate on and is reported with the per-layer metrics.
	if sweeping {
		rep.set("op_p50_ms", sw.batchMS.windowed(openSpan, windows, median), sw.batchMS.len())
		rep.set("op.p95_ms", sw.batchMS.windowed(openSpan, windows, p95), sw.batchMS.len())
		rep.set("ops_per_s", sw.points.windowRate(openSpan, windows), sw.points.len())
	} else {
		rep.set("op_p50_ms", ls.warm.windowed(openSpan, windows, median), ls.warm.len())
		rep.set("op.p95_ms", ls.warm.windowed(openSpan, windows, p95), ls.warm.len())
		rep.set("ops_per_s", answers.windowRate(capSpan, windows), answers.len())
	}
	if !c.trace {
		return nil
	}

	rep.set("serve.warm_p50_ms", ls.warm.windowed(openSpan, windows, median), ls.warm.len())
	rep.set("serve.warm_p95_ms", ls.warm.windowed(openSpan, windows, p95), ls.warm.len())
	rep.set("serve.estimate_p50_ms", ls.estimate.windowed(openSpan, windows, median), ls.estimate.len())
	rep.set("serve.estimate_p95_ms", ls.estimate.windowed(openSpan, windows, p95), ls.estimate.len())
	rep.set("serve.failed_ratio", ratio(float64(rep.failed), float64(rep.attempted)), rep.attempted)
	rep.set("loadgen.late_p95_ms", quantile(ls.late, 0.95), len(ls.late))
	if c.workload == "serve_sweep" {
		rep.set("trace.overhead_ratio", ratio(median(sw.traced), median(sw.untraced)), sw.batchMS.len())
	} else {
		rep.set("trace.overhead_ratio", ratio(median(ls.warmTraced), median(ls.warmUntraced)), ls.warm.len())
	}
	rep.set("cluster.balance", gw.Balance, len(gw.Nodes))
	rep.set("cluster.spills", float64(gw.Gateway.Spills), 1)

	var d struct{ admitted, rejected, submitted, memo, disk, simulated, estReq, estServed, retrains float64 }
	for i := range after {
		a, b := after[i], before[i]
		d.admitted += float64(a.Pool.Admitted - b.Pool.Admitted)
		d.rejected += float64(a.Pool.Rejected - b.Pool.Rejected)
		d.submitted += float64(a.Engine.Submitted - b.Engine.Submitted)
		d.memo += float64(a.Engine.MemoHits - b.Engine.MemoHits)
		d.disk += float64(a.Engine.DiskHits - b.Engine.DiskHits)
		d.simulated += float64(a.Engine.Simulated - b.Engine.Simulated)
		if a.Estimate != nil && b.Estimate != nil {
			d.estReq += float64(a.Estimate.Requests - b.Estimate.Requests)
			d.estServed += float64(a.Estimate.Served - b.Estimate.Served)
		}
		if a.Surrogate != nil && b.Surrogate != nil {
			d.retrains += float64(a.Surrogate.Retrains - b.Surrogate.Retrains)
		}
	}
	rep.set("server.admission_rejected_ratio", ratio(d.rejected, d.admitted+d.rejected), int(d.admitted+d.rejected))
	rep.set("runcache.store_hit_ratio", ratio(d.memo+d.disk, d.submitted), int(d.submitted))
	rep.set("runcache.disk_hit_ratio", ratio(d.disk, d.submitted), int(d.submitted))
	rep.set("runcache.simulated", d.simulated, 1)
	rep.set("surrogate.served_ratio", ratio(d.estServed, d.estReq), int(d.estReq))
	rep.set("surrogate.retrains", d.retrains, 1)

	if err := hopPairs(sv, fix, rng, s.hopPairs, rep); err != nil {
		return err
	}
	var work simWork
	for _, o := range ops {
		if !o.estimate {
			work.add(fix[o.point].res.Snapshot)
		}
	}
	work.report(rep)
	items := make([]probeItem, len(fix))
	for i, p := range fix {
		items[i] = probeItem{req: p.req, res: p.res}
	}
	if err := probeLayers(runDir, items, rep); err != nil {
		return err
	}
	// The answers the load received through the gateway replace the
	// probe's in-process ones.
	rep.set("server.response_bytes", mean(ls.warmBytes), len(ls.warmBytes))
	return nil
}

// hopPairs times the same warm point through the gateway and then directly
// at its ring owner, n times, and reports the gateway hop as the paired
// difference. Each point is first requested once untimed, so both timed
// legs are memo hits rather than the first a warehouse read.
func hopPairs(sv *svc, fix []fixturePoint, rng *rand.Rand, n int, rep *report) error {
	ring := cluster.NewRing(sv.shardURLs, 0)
	hc := newConn()
	direct := map[string]*http.Client{}
	var hops, directMS []float64
	for k := 0; k < n; k++ {
		p := fix[rng.Intn(len(fix))]
		owner := ring.Owner(string(p.fp))
		if direct[owner] == nil {
			direct[owner] = newConn()
		}
		body := server.SimulateRequest{PointRequest: p.req}
		if code, _, err := call(hc, sv.gwURL+"/v1/simulate", body, nil, 0); err != nil || code != http.StatusOK {
			return fmt.Errorf("hop pair warm-up: HTTP %d: %v", code, err)
		}
		t0 := time.Now()
		code, _, err := call(hc, sv.gwURL+"/v1/simulate", body, nil, 0)
		t1 := time.Now()
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("hop pair via gateway: HTTP %d: %v", code, err)
		}
		code, _, err = call(direct[owner], owner+"/v1/simulate", body, nil, 0)
		t2 := time.Now()
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("hop pair direct: HTTP %d: %v", code, err)
		}
		hops = append(hops, ms(t1.Sub(t0))-ms(t2.Sub(t1)))
		directMS = append(directMS, ms(t2.Sub(t1)))
	}
	rep.set("cluster.hop_p50_ms", median(hops), n)
	rep.set("cluster.hop_p95_ms", quantile(hops, 0.95), n)
	rep.set("server.direct_warm_p50_ms", median(directMS), n)
	return nil
}
