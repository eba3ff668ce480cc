package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"uopsim/internal/experiments"
	"uopsim/internal/runcache"
	"uopsim/internal/server"
	"uopsim/internal/warehouse"
)

// flakyHandler wraps a shard so tests can kill it: while down, every
// request's connection is severed (http.ErrAbortHandler), which the
// gateway sees as a transport failure — the same signal a SIGKILLed
// process produces. failSweeps severs only /v1/sweep calls, modeling a
// node dying the moment a scatter batch lands on it.
type flakyHandler struct {
	h          http.Handler
	mu         sync.Mutex
	down       bool
	failSweeps bool
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	kill := f.down || (f.failSweeps && r.URL.Path == "/v1/sweep")
	f.mu.Unlock()
	if kill {
		panic(http.ErrAbortHandler)
	}
	f.h.ServeHTTP(w, r)
}

func (f *flakyHandler) setDown(v bool) {
	f.mu.Lock()
	f.down = v
	f.mu.Unlock()
}

func (f *flakyHandler) setFailSweeps(v bool) {
	f.mu.Lock()
	f.failSweeps = v
	f.mu.Unlock()
}

type testShard struct {
	url string
	srv *server.Server
	fl  *flakyHandler
}

// newTestCluster boots n warehouse-backed shards behind kill switches and
// a started gateway over them, plus an httptest front for the gateway
// itself. Probing is fast (25ms, one strike) so failover converges within
// a test's patience.
func newTestCluster(t *testing.T, n int) (*Gateway, string, []*testShard) {
	t.Helper()
	shards := make([]*testShard, n)
	urls := make([]string, n)
	for i := range shards {
		eng, ws, err := experiments.NewEngine(t.TempDir(), warehouse.Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ws.Close() })
		srv := server.New(server.Config{
			Workers: 2,
			Engine:  eng,
			NodeID:  fmt.Sprintf("shard-%d", i),
		})
		fl := &flakyHandler{h: srv}
		hts := httptest.NewServer(fl)
		t.Cleanup(hts.Close)
		shards[i] = &testShard{url: hts.URL, srv: srv, fl: fl}
		urls[i] = hts.URL
	}
	gw, err := New(Config{
		Nodes:         urls,
		ProbeInterval: 25 * time.Millisecond,
		ProbeFails:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.Start()
	t.Cleanup(gw.Stop)
	gts := httptest.NewServer(gw)
	t.Cleanup(gts.Close)
	return gw, gts.URL, shards
}

// testPoints builds k distinct valid design points (small runs — these
// simulate for real).
func testPoints(k int) []experiments.PointRequest {
	var pts []experiments.PointRequest
	for _, cap := range []int{1024, 2048} {
		for _, wl := range []string{"bm_cc", "redis", "jvm"} {
			for _, sc := range experiments.Schemes(2) {
				pts = append(pts, experiments.PointRequest{
					Workload: wl, Scheme: sc.Name, Capacity: cap,
					Warmup: 1_000, Measure: 4_000,
				}.WithDefaults())
				if len(pts) == k {
					return pts
				}
			}
		}
	}
	return pts
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// shardFor maps a point to the shard the ring says owns it.
func shardFor(t *testing.T, gw *Gateway, shards []*testShard, pt experiments.PointRequest) (owner, other *testShard) {
	t.Helper()
	fp, err := pt.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	name := gw.Ring().Owner(string(fp))
	for _, sh := range shards {
		if sh.url == name {
			owner = sh
		} else if other == nil {
			other = sh
		}
	}
	if owner == nil {
		t.Fatalf("no shard matches ring owner %s", name)
	}
	return owner, other
}

// TestGatewayClusterDedupe is the acceptance scenario: 50 requests over 10
// unique points through a 3-shard cluster must simulate exactly 10 times
// fleet-wide, with every unique point resolved by exactly one shard.
func TestGatewayClusterDedupe(t *testing.T) {
	gw, gwURL, shards := newTestCluster(t, 3)
	client := server.NewClient(gwURL)
	report, err := server.RunLoad(client, server.LoadConfig{
		Requests: 50, Unique: 10, Concurrency: 8,
		Warmup: 1_000, Measure: 4_000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != 0 {
		t.Fatalf("load failed %d of %d requests", report.Failed, report.Requests)
	}
	var total uint64
	used := 0
	for _, sh := range shards {
		st := sh.srv.Engine().Stats()
		total += st.Simulated
		if st.Simulated > 0 {
			used++
		}
	}
	if total != 10 {
		t.Fatalf("cluster simulated %d points, want exactly the 10 unique", total)
	}
	if used < 2 {
		t.Fatalf("all unique points landed on %d shard(s); routing is not spreading", used)
	}
	// The gateway's own aggregate view must agree.
	st := gw.statsResponse()
	if st.Cluster.Engine.Simulated != 10 {
		t.Fatalf("gateway stats sum Simulated=%d, want 10", st.Cluster.Engine.Simulated)
	}
	if st.Cluster.ShardsReporting != 3 || st.NodesAlive != 3 {
		t.Fatalf("gateway sees %d reporting / %d alive, want 3/3", st.Cluster.ShardsReporting, st.NodesAlive)
	}
	if st.Balance <= 0 {
		t.Fatalf("balance ratio not computed: %+v", st)
	}
}

// TestGatewaySpillReadThroughAndReplication walks the full failover story
// for one point: owner down -> spill to the neighbor; owner back -> the
// spilled blob replicates home and the owner serves it from disk without
// re-simulating.
func TestGatewaySpillReadThroughAndReplication(t *testing.T) {
	gw, gwURL, shards := newTestCluster(t, 3)
	client := server.NewClient(gwURL)
	pt := testPoints(1)[0]
	owner, _ := shardFor(t, gw, shards, pt)

	// Kill the owner and wait for the prober to notice.
	owner.fl.setDown(true)
	waitFor(t, "owner markdown", func() bool { return !gw.mem.alive(owner.url) })

	resp, err := client.Simulate(server.SimulateRequest{PointRequest: pt})
	if err != nil {
		t.Fatalf("spill simulate failed: %v", err)
	}
	if resp.Resolution != "simulated" {
		t.Fatalf("spill resolution = %s, want simulated", resp.Resolution)
	}
	if gw.met.spills.Load() == 0 {
		t.Fatal("no spill counted after off-owner serve")
	}
	if owner.srv.Engine().Stats().Simulated != 0 {
		t.Fatal("downed owner somehow simulated the point")
	}

	// Recover the owner; the rejoin hook must replicate the spilled blob
	// home.
	owner.fl.setDown(false)
	waitFor(t, "owner rejoin", func() bool { return gw.mem.alive(owner.url) })
	waitFor(t, "replication", func() bool { return gw.met.replications.Load() >= 1 })

	// The owner now serves its point from the replicated blob: a disk hit,
	// not a re-simulation — the cluster-wide dedupe held through the
	// failure.
	again, err := client.Simulate(server.SimulateRequest{PointRequest: pt})
	if err != nil {
		t.Fatal(err)
	}
	if again.Resolution != "disk" {
		t.Fatalf("post-replication resolution = %s, want disk (served by the recovered owner)", again.Resolution)
	}
	st := owner.srv.Engine().Stats()
	if st.Simulated != 0 || st.DiskHits != 1 {
		t.Fatalf("owner engine after replication: %+v, want 0 simulations and 1 disk hit", st)
	}
}

// TestGatewaySweepSurvivesNodeDeath scatters a sweep while one shard dies
// the moment its sub-batch arrives: every point must still come back
// exactly once with zero error lines, absorbed by the survivors.
func TestGatewaySweepSurvivesNodeDeath(t *testing.T) {
	_, gwURL, shards := newTestCluster(t, 3)
	client := server.NewClient(gwURL)
	shards[1].fl.setFailSweeps(true)

	pts := testPoints(10)
	reqs := make([]experiments.PointRequest, 30)
	for i := range reqs {
		reqs[i] = pts[i%len(pts)]
	}
	seen := make([]bool, len(reqs))
	err := client.Sweep(server.SweepRequest{Points: reqs}, func(line server.SweepLine) error {
		if line.Index < 0 || line.Index >= len(seen) {
			return fmt.Errorf("out-of-range index %d", line.Index)
		}
		if seen[line.Index] {
			return fmt.Errorf("index %d answered twice", line.Index)
		}
		seen[line.Index] = true
		if line.Error != "" {
			return fmt.Errorf("index %d failed: %s", line.Index, line.Error)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("sweep never answered index %d", i)
		}
	}
	if sim := shards[1].srv.Engine().Stats().Simulated; sim != 0 {
		t.Fatalf("dead-to-sweeps shard simulated %d points", sim)
	}
}

// TestGatewayQueryMerge fans a query across the shards and checks the
// merge: every stored point exactly once, ascending fingerprint order.
func TestGatewayQueryMerge(t *testing.T) {
	_, gwURL, _ := newTestCluster(t, 3)
	client := server.NewClient(gwURL)
	pts := testPoints(6)
	for _, pt := range pts {
		if _, err := client.Simulate(server.SimulateRequest{PointRequest: pt}); err != nil {
			t.Fatal(err)
		}
	}
	var rows []server.QueryRow
	err := client.Query(server.QueryRequest{Metrics: []string{"upc"}}, func(row server.QueryRow) error {
		rows = append(rows, row)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(pts) {
		t.Fatalf("merged query returned %d rows, want %d", len(rows), len(pts))
	}
	seen := map[runcache.Fingerprint]bool{}
	for i, row := range rows {
		if i > 0 && rows[i-1].Fingerprint >= row.Fingerprint {
			t.Fatalf("rows out of order at %d: %s !< %s", i, rows[i-1].Fingerprint, row.Fingerprint)
		}
		if seen[row.Fingerprint] {
			t.Fatalf("duplicate fingerprint %s in merged stream", row.Fingerprint)
		}
		seen[row.Fingerprint] = true
		if row.Metrics["upc"] == 0 {
			t.Fatalf("row %s carries no upc", row.Fingerprint)
		}
	}
}

// TestGatewayHealthz checks the degraded-but-serving contract: 200 while
// any shard lives, 503 when none does, and recovery back to 200.
func TestGatewayHealthz(t *testing.T) {
	gw, gwURL, shards := newTestCluster(t, 2)
	check := func(want int) {
		t.Helper()
		resp, err := http.Get(gwURL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("healthz = %d, want %d", resp.StatusCode, want)
		}
	}
	check(http.StatusOK)
	for _, sh := range shards {
		sh.fl.setDown(true)
	}
	waitFor(t, "all shards down", func() bool { return gw.mem.aliveCount() == 0 })
	check(http.StatusServiceUnavailable)
	shards[0].fl.setDown(false)
	waitFor(t, "one shard back", func() bool { return gw.mem.aliveCount() == 1 })
	check(http.StatusOK)
}

// TestGatewayRejectsDuplicateNodes guards the config contract.
func TestGatewayRejectsDuplicateNodes(t *testing.T) {
	if _, err := New(Config{Nodes: []string{"http://a:1", "http://a:1"}}); err == nil {
		t.Fatal("duplicate -nodes accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty -nodes accepted")
	}
}

// TestMembershipStrikes exercises the mark-down/rejoin counters directly:
// failures below the threshold keep a shard alive, the threshold downs it,
// one success rejoins it and fires the hook.
func TestMembershipStrikes(t *testing.T) {
	var rejoined []string
	m := newMembership([]*shard{{name: "a"}, {name: "b"}}, time.Hour, 3, func(name string) {
		rejoined = append(rejoined, name)
	})
	m.reportFailure("a")
	m.reportFailure("a")
	if !m.alive("a") {
		t.Fatal("two strikes of three downed the shard")
	}
	m.reportFailure("a")
	if m.alive("a") {
		t.Fatal("three strikes left the shard alive")
	}
	if m.aliveCount() != 1 {
		t.Fatalf("aliveCount = %d, want 1", m.aliveCount())
	}
	m.reportSuccess("a", server.HealthzInfo{Node: "shard-a", Points: 7})
	if !m.alive("a") {
		t.Fatal("success did not rejoin the shard")
	}
	if len(rejoined) != 1 || rejoined[0] != "a" {
		t.Fatalf("rejoin hook saw %v, want [a]", rejoined)
	}
	h, ok := m.healthOf("a")
	if !ok || h.Info.Node != "shard-a" || h.Info.Points != 7 {
		t.Fatalf("healthOf lost the probe payload: %+v", h)
	}
	md, rj, _ := m.counters()
	if md != 1 || rj != 1 {
		t.Fatalf("counters markdowns=%d rejoins=%d, want 1/1", md, rj)
	}
	// Unknown shards are ignored, not invented.
	m.reportFailure("zz")
	m.reportSuccess("zz", server.HealthzInfo{})
	if _, ok := m.healthOf("zz"); ok {
		t.Fatal("unknown shard materialized in membership")
	}
}

// TestGatewayStatsEndpoint smoke-checks the aggregate JSON and the
// Prometheus rendering over the wire.
func TestGatewayStatsEndpoint(t *testing.T) {
	_, gwURL, _ := newTestCluster(t, 3)
	client := server.NewClient(gwURL)
	if _, err := client.Simulate(server.SimulateRequest{PointRequest: testPoints(1)[0]}); err != nil {
		t.Fatal(err)
	}
	cs, err := NewClient(gwURL).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Ring.Nodes != 3 || cs.Ring.VNodes != DefaultVNodes {
		t.Fatalf("ring info wrong: %+v", cs.Ring)
	}
	if cs.Gateway.Requests == 0 {
		t.Fatal("gateway requests counter never moved")
	}
	if len(cs.Nodes) != 3 {
		t.Fatalf("stats lists %d nodes, want 3", len(cs.Nodes))
	}
	resp, err := http.Get(gwURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{"uopgate_gateway_requests", "uopgate_gateway_ring_nodes", "uopgate_node_requests_total{node="} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
}

// TestEnqueueReplCountsDrops fills the replication queue with no worker
// draining it: the job past capacity must be dropped, counted in
// repl_dropped, and leave no pending mark behind, so a later read-through
// or rejoin can enqueue it again.
func TestEnqueueReplCountsDrops(t *testing.T) {
	gw, err := New(Config{Nodes: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cap(gw.replJobs); i++ {
		gw.enqueueRepl(replJob{fp: runcache.Fingerprint(fmt.Sprintf("fp-%d", i))})
	}
	if n := gw.met.replDropped.Load(); n != 0 {
		t.Fatalf("repl_dropped = %d with the queue not yet full, want 0", n)
	}
	over := runcache.Fingerprint("fp-over")
	gw.enqueueRepl(replJob{fp: over})
	if n := gw.met.replDropped.Load(); n != 1 {
		t.Fatalf("repl_dropped = %d after one job past capacity, want 1", n)
	}
	gw.mu.Lock()
	pending := gw.replPending[over]
	gw.mu.Unlock()
	if pending {
		t.Fatal("dropped job left its pending mark set")
	}
	if got := gw.met.reg.CounterValue("gateway.repl_dropped"); got != 1 {
		t.Fatalf("/metrics gateway.repl_dropped = %d, want 1", got)
	}
	if got := gw.statsResponse().Gateway.ReplDropped; got != 1 {
		t.Fatalf("/v1/stats repl_dropped = %d, want 1", got)
	}
}
