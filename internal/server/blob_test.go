package server

import (
	"net/http"
	"strings"
	"testing"

	"uopsim/internal/experiments"
	"uopsim/internal/warehouse"
)

// TestHealthzIdentity checks the enriched /healthz payload a cluster
// gateway's membership probe consumes: node identity, uptime, and the
// stored point count, growing as results land.
func TestHealthzIdentity(t *testing.T) {
	eng, ws, err := experiments.NewEngine(t.TempDir(), warehouse.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })
	_, ts := newTestServer(t, Config{Workers: 2, Engine: eng, NodeID: "shard-7"})
	client := NewClient(ts.URL)

	info, err := client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != "ok" || info.Node != "shard-7" || !info.Warehouse {
		t.Fatalf("healthz identity wrong: %+v", info)
	}
	if info.Points != 0 {
		t.Fatalf("fresh daemon reports %d points", info.Points)
	}
	if info.UptimeSeconds < 0 {
		t.Fatalf("negative uptime: %v", info.UptimeSeconds)
	}

	pt := experiments.PointRequest{Workload: "bm_ds", Scheme: "baseline", Capacity: 1024, Warmup: 1_000, Measure: 4_000}
	if _, err := client.Simulate(SimulateRequest{PointRequest: pt}); err != nil {
		t.Fatal(err)
	}
	info, err = client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if info.Points != 1 {
		t.Fatalf("after one simulation healthz reports %d points, want 1", info.Points)
	}
}

// TestBlobRoundTrip drives the replication primitive end to end between
// two daemons the way the gateway does: simulate on one, fetch its blob,
// put it to the other, and watch the second daemon serve the point as a
// disk hit without ever simulating.
func TestBlobRoundTrip(t *testing.T) {
	mk := func(node string) (*Client, *Server) {
		eng, ws, err := experiments.NewEngine(t.TempDir(), warehouse.Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ws.Close() })
		s, ts := newTestServer(t, Config{Workers: 2, Engine: eng, NodeID: node})
		return NewClient(ts.URL), s
	}
	src, _ := mk("src")
	dst, dstSrv := mk("dst")

	pt := experiments.PointRequest{Workload: "bm_ds", Scheme: "baseline", Capacity: 2048, Warmup: 1_000, Measure: 4_000}.WithDefaults()
	sim, err := src.Simulate(SimulateRequest{PointRequest: pt})
	if err != nil {
		t.Fatal(err)
	}

	blob, err := src.FetchBlob(sim.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	feats, err := pt.Features()
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.PutBlob(BlobPut{Fingerprint: sim.Fingerprint, Features: feats, Blob: blob}); err != nil {
		t.Fatal(err)
	}

	got, err := dst.Simulate(SimulateRequest{PointRequest: pt})
	if err != nil {
		t.Fatal(err)
	}
	if got.Resolution != "disk" {
		t.Fatalf("replicated point resolved as %s, want disk", got.Resolution)
	}
	if st := dstSrv.Engine().Stats(); st.Simulated != 0 {
		t.Fatalf("destination simulated %d times after replication", st.Simulated)
	}
	if got.Result.Metrics.UPC != sim.Result.Metrics.UPC {
		t.Fatalf("replicated UPC %v != source %v", got.Result.Metrics.UPC, sim.Result.Metrics.UPC)
	}

	// The endpoint's contract edges: a miss is 404, garbage is rejected
	// before it can poison the store.
	absent := strings.Repeat("0", 64)
	if _, err := src.FetchBlob(absent); err == nil {
		t.Fatal("fetching a missing blob succeeded")
	} else if se, ok := err.(*StatusError); !ok || se.Code != http.StatusNotFound {
		t.Fatalf("missing blob error = %v, want 404", err)
	}
	if err := dst.PutBlob(BlobPut{Fingerprint: absent, Blob: []byte(`{"not":"a result"}`)}); err == nil {
		t.Fatal("putting an invalid blob succeeded")
	}
	if err := dst.PutBlob(BlobPut{Blob: blob}); err == nil {
		t.Fatal("putting a blob without a fingerprint succeeded")
	}
}

// TestBlobRejectsMalformedFingerprint: /v1/blob takes its fingerprint from
// the network, so anything not in runcache.Key's form — a path, uppercase
// hex, the wrong length — is a 400 in both directions, and a refused POST
// leaves the store untouched.
func TestBlobRejectsMalformedFingerprint(t *testing.T) {
	eng, ws, err := experiments.NewEngine(t.TempDir(), warehouse.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })
	_, ts := newTestServer(t, Config{Workers: 1, Engine: eng})
	client := NewClient(ts.URL)

	pt := experiments.PointRequest{Workload: "bm_ds", Scheme: "baseline", Capacity: 2048, Warmup: 1_000, Measure: 4_000}
	sim, err := client.Simulate(SimulateRequest{PointRequest: pt})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := client.FetchBlob(sim.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}

	for _, fp := range []string{
		"",
		"../../x",
		"../" + sim.Fingerprint,
		strings.ToUpper(sim.Fingerprint),
		sim.Fingerprint[:63],
		sim.Fingerprint + "0",
	} {
		if _, err := client.FetchBlob(fp); err == nil {
			t.Errorf("GET fp=%q succeeded", fp)
		} else if se, ok := err.(*StatusError); !ok || se.Code != http.StatusBadRequest {
			t.Errorf("GET fp=%q: %v, want 400", fp, err)
		}
		err := client.PutBlob(BlobPut{Fingerprint: fp, Blob: blob})
		if se, ok := err.(*StatusError); !ok || se.Code != http.StatusBadRequest {
			t.Errorf("POST fingerprint=%q: %v, want 400", fp, err)
		}
	}
	if n := ws.Len(); n != 1 {
		t.Fatalf("refused puts changed the store: %d records, want 1", n)
	}
}
