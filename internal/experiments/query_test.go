package experiments

import (
	"strconv"
	"testing"

	"uopsim/internal/warehouse"
	"uopsim/internal/workload"
)

// warehouseParams is tinyParams with a warehouse-backed engine; the store
// is returned for querying.
func warehouseParams(t *testing.T) (Params, *warehouse.Store) {
	t.Helper()
	p := tinyParams()
	eng, ws, err := NewEngine(t.TempDir(), warehouse.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })
	p.Engine = eng
	return p, ws
}

// TestQueryRowsMatchRecomputedMetrics is the acceptance check: UPC values
// read back through QueryStore must equal the UPC the simulation produced,
// for the exact set of points the sweep stored.
func TestQueryRowsMatchRecomputedMetrics(t *testing.T) {
	p, ws := warehouseParams(t)
	sc := Schemes(2)[1] // CLASP
	want := map[string]float64{}
	for _, name := range []string{"bm_ds", "redis"} {
		r, err := runOne(p, name, sc, 2048)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = r.Metrics.UPC
	}

	rows, err := QueryStore(ws, StoreQuery{Metrics: []string{"upc", "cycles"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("query returned %d rows, want 2", len(rows))
	}
	recs, err := ws.Select(warehouse.Query{})
	if err != nil {
		t.Fatal(err)
	}
	matched := 0
	for i, rec := range recs {
		wl, ok := rec.Features.Get("workload")
		if !ok {
			t.Fatalf("record %s has no workload feature", rec.Fingerprint.Short())
		}
		if rows[i].Fingerprint != rec.Fingerprint {
			t.Fatalf("row %d fingerprint %s != record %s", i, rows[i].Fingerprint.Short(), rec.Fingerprint.Short())
		}
		if got := rows[i].Metrics["upc"]; got != want[wl] {
			t.Errorf("%s: queried upc %v != simulated %v", wl, got, want[wl])
		}
		if rows[i].Metrics["cycles"] <= 0 {
			t.Errorf("%s: non-positive cycles %v", wl, rows[i].Metrics["cycles"])
		}
		matched++
	}
	if matched != 2 {
		t.Fatalf("matched %d records, want 2", matched)
	}
}

// TestQueryWherePredicates: feature predicates select by workload and by
// flattened config field.
func TestQueryWherePredicates(t *testing.T) {
	p, ws := warehouseParams(t)
	for _, name := range []string{"bm_ds", "redis"} {
		for _, capacity := range []int{1024, 2048} {
			if _, err := runOne(p, name, Schemes(2)[0], capacity); err != nil {
				t.Fatal(err)
			}
		}
	}

	rows, err := QueryStore(ws, StoreQuery{Where: map[string]string{"workload": "redis"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("workload=redis matched %d rows, want 2", len(rows))
	}

	capKey := "config.uopcache.capacityuops"
	rows, err = QueryStore(ws, StoreQuery{
		Where:           map[string]string{"workload": "redis", capKey: "1024"},
		IncludeFeatures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("workload+capacity matched %d rows, want 1", len(rows))
	}
	if v, ok := rows[0].Features.Get(capKey); !ok || v != "1024" {
		t.Fatalf("row features lack %s=1024: %v", capKey, rows[0].Features)
	}

	rows, err = QueryStore(ws, StoreQuery{Where: map[string]string{"workload": "nutch"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("unstored workload matched %d rows", len(rows))
	}
}

// TestQuerySnapshotPathFallback: metric names outside the derived set read
// the stored stats snapshot by dotted path; unknown names error.
func TestQuerySnapshotPathFallback(t *testing.T) {
	p, ws := warehouseParams(t)
	if _, err := runOne(p, "bm_ds", Schemes(2)[0], 2048); err != nil {
		t.Fatal(err)
	}
	rows, err := QueryStore(ws, StoreQuery{Metrics: []string{"oc.hits"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Metrics["oc.hits"] < 0 {
		t.Fatalf("snapshot-path rows = %v", rows)
	}
	if _, err := QueryStore(ws, StoreQuery{Metrics: []string{"no.such.metric"}}); err == nil {
		t.Fatal("unknown metric name did not error")
	}
}

// TestPointFeaturesShape: the feature vector carries the workload identity,
// run lengths, and the flattened config, with values in canonical decimal.
func TestPointFeaturesShape(t *testing.T) {
	p := tinyParams()
	prof := Schemes(2)[0].Configure(2048) // config under test
	wl, err := workload.ByName("bm_ds")
	if err != nil {
		t.Fatal(err)
	}
	f, err := pointFeatures(p, wl, prof)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{
		"workload":                     "bm_ds",
		"warmupinsts":                  strconv.FormatUint(p.WarmupInsts, 10),
		"measureinsts":                 strconv.FormatUint(p.MeasureInsts, 10),
		"sampled":                      "false",
		"config.uopcache.capacityuops": "2048",
	} {
		if v, ok := f.Get(key); !ok || v != want {
			t.Errorf("feature %s = %q, %v; want %q", key, v, ok, want)
		}
	}
}
