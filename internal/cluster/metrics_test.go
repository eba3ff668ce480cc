package cluster

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"uopsim/internal/experiments"
	"uopsim/internal/server"
	"uopsim/internal/warehouse"
)

// goldenMetricsPath is the gateway's /metrics exposition of the scripted
// sequence in TestGatewayMetricsGolden, shard URLs replaced by
// placeholders: shard-0 owns every scripted point, shard-1 sees only the
// query fan-out.
const goldenMetricsPath = "testdata/metrics.golden"

// rejectNext answers the next /v1/simulate with a 429 instead of passing
// it to the shard — the response a saturated daemon gives.
type rejectNext struct {
	h    http.Handler
	next atomic.Bool
}

func (r *rejectNext) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.URL.Path == "/v1/simulate" && r.next.CompareAndSwap(true, false) {
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, `{"error":"admission queue full"}`)
		return
	}
	r.h.ServeHTTP(w, req)
}

// runGatewayMetricsScript drives a fixed sequence through an unstarted
// gateway over two warehouse-backed shards (no prober, so membership and
// probe gauges stay put): a full and a sampled simulate, an estimate of
// the full point, a 2-point sweep, a query, and one 429. Every scripted
// point is owned by the same shard. It returns /metrics with shard URLs
// replaced by placeholders.
func runGatewayMetricsScript(t *testing.T) string {
	t.Helper()
	fronts := make([]*rejectNext, 2)
	urls := make([]string, 2)
	for i := range fronts {
		eng, ws, err := experiments.NewEngine(t.TempDir(), warehouse.Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ws.Close() })
		srv := server.New(server.Config{Workers: 1, Engine: eng, NodeID: fmt.Sprintf("shard-%d", i)})
		fronts[i] = &rejectNext{h: srv}
		hts := httptest.NewServer(fronts[i])
		t.Cleanup(hts.Close)
		urls[i] = hts.URL
	}
	gw, err := New(Config{Nodes: urls})
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw)
	t.Cleanup(gts.Close)
	client := server.NewClient(gts.URL)

	ownerOf := func(pt experiments.PointRequest) string {
		fp, err := pt.WithDefaults().Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return gw.Ring().Owner(string(fp))
	}
	// The ring hashes the shards' URLs, whose ports are random, so which
	// shard owns a point changes from run to run. Script against the shard
	// that owns the most of the 12 candidates: with two shards that is at
	// least 6, whatever the ports. Its sampled point is searched over all
	// 30 test points, so that the shard owning none of them is no real
	// chance (2^-30).
	cands := testPoints(12)
	byOwner := map[string][]experiments.PointRequest{}
	owner := ""
	for _, pt := range cands {
		o := ownerOf(pt)
		byOwner[o] = append(byOwner[o], pt)
		if len(byOwner[o]) > len(byOwner[owner]) {
			owner = o
		}
	}
	owned := byOwner[owner]
	var sampled experiments.PointRequest
	for _, pt := range testPoints(30) {
		pt.Measure = 12_000
		pt.Sampling = &experiments.SamplingRequest{Intervals: 2, IntervalInsts: 2_000, WarmupInsts: 500}
		if ownerOf(pt) == owner {
			sampled = pt
			break
		}
	}
	if len(owned) < 4 || sampled.Sampling == nil {
		t.Fatalf("too few candidate points owned by one shard (%d)", len(owned))
	}

	if _, err := client.Simulate(server.SimulateRequest{PointRequest: owned[0]}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Simulate(server.SimulateRequest{PointRequest: sampled}); err != nil {
		t.Fatal(err)
	}
	if est, err := client.Estimate(server.EstimateRequest{PointRequest: owned[0]}); err != nil || est.Source != "surrogate" {
		t.Fatalf("estimate of a simulated point = %+v, %v; want a surrogate hit", est, err)
	}
	if err := client.Sweep(server.SweepRequest{Points: owned[1:3]}, func(server.SweepLine) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := client.Query(server.QueryRequest{}, func(server.QueryRow) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for i, u := range urls {
		if u == owner {
			fronts[i].next.Store(true)
		}
	}
	var se *server.StatusError
	if _, err := client.Simulate(server.SimulateRequest{PointRequest: owned[3]}); !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("rejected simulate = %v, want a 429", err)
	}

	resp, err := http.Get(gts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, u := range urls {
		placeholder := "shard-1"
		if u == owner {
			placeholder = "shard-0"
		}
		text = strings.ReplaceAll(text, u, placeholder)
	}
	return text
}

// TestGatewayMetricsGolden pins the gateway's /metrics exposition for the
// scripted sequence: the same lines as the committed golden (as a
// multiset), and every # TYPE line directly above its own samples.
func TestGatewayMetricsGolden(t *testing.T) {
	got := runGatewayMetricsScript(t)
	want, err := os.ReadFile(goldenMetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	sorted := func(text string) string {
		lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	if g, w := sorted(got), sorted(string(want)); g != w {
		t.Errorf("exposition lines differ from golden\n--- got\n%s\n--- want\n%s", g, w)
	}
	family := ""
	for _, l := range strings.Split(strings.TrimSuffix(got, "\n"), "\n") {
		if f, ok := strings.CutPrefix(l, "# TYPE "); ok {
			family = strings.Fields(f)[0]
			continue
		}
		if name := strings.FieldsFunc(l, func(r rune) bool { return r == '{' || r == ' ' })[0]; name != family {
			t.Errorf("sample %q is not under its # TYPE line (current family %q)", l, family)
		}
	}
}
