package stats

import (
	"bytes"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRegistryRegistrationAndSnapshot(t *testing.T) {
	r := NewRegistry()
	hits := r.Counter("oc.hits")
	hits.Add(7)

	var misp Counter
	r.RegisterCounter("bpu.tage.mispredicts", &misp)
	misp.Inc()

	r.RegisterGauge("oc.hit_rate", func() float64 { return 0.5 })

	var m Mean
	m.Observe(2)
	m.Observe(4)
	r.RegisterMean("backend.rob.occ", &m)

	h := NewHistogram(10, 20)
	h.Observe(5)
	h.Observe(15)
	h.Observe(99)
	r.RegisterHist("oc.entry.size", h)

	var d Distribution
	d.Observe(1)
	d.Observe(1)
	d.Observe(3)
	r.RegisterDist("oc.entries_per_pw", &d)

	snap := r.Snapshot()
	wantOrder := []string{
		"backend.rob.occ", "bpu.tage.mispredicts", "oc.entries_per_pw",
		"oc.entry.size", "oc.hit_rate", "oc.hits",
	}
	if len(snap.Samples) != len(wantOrder) {
		t.Fatalf("got %d samples, want %d", len(snap.Samples), len(wantOrder))
	}
	for i, want := range wantOrder {
		if snap.Samples[i].Path != want {
			t.Errorf("sample[%d] = %q, want %q (snapshot must be path-sorted)", i, snap.Samples[i].Path, want)
		}
	}

	if got := snap.Counter("oc.hits"); got != 7 {
		t.Errorf("Counter(oc.hits) = %d, want 7", got)
	}
	if got := snap.Counter("bpu.tage.mispredicts"); got != 1 {
		t.Errorf("Counter(bpu.tage.mispredicts) = %d, want 1", got)
	}
	if got := snap.Value("oc.hit_rate"); got != 0.5 {
		t.Errorf("Value(oc.hit_rate) = %v, want 0.5", got)
	}
	if got := snap.Value("backend.rob.occ"); got != 3 {
		t.Errorf("Value(backend.rob.occ) = %v, want 3", got)
	}
	if sm, ok := snap.Sample("backend.rob.occ"); !ok || sm.Count != 2 {
		t.Errorf("Sample(backend.rob.occ).Count = %d, want 2", sm.Count)
	}

	sm, ok := snap.Sample("oc.entry.size")
	if !ok {
		t.Fatal("histogram sample missing")
	}
	wantBuckets := []Bucket{{Le: 10, Count: 1}, {Le: 20, Count: 1}, {Le: math.MaxInt64, Count: 1}}
	if len(sm.Buckets) != len(wantBuckets) {
		t.Fatalf("hist buckets = %v", sm.Buckets)
	}
	for i, b := range wantBuckets {
		if sm.Buckets[i] != b {
			t.Errorf("hist bucket[%d] = %+v, want %+v", i, sm.Buckets[i], b)
		}
	}
	if got := snap.HistFraction("oc.entry.size", 0); got != 1.0/3 {
		t.Errorf("HistFraction = %v, want 1/3", got)
	}
	if got := snap.DistFraction("oc.entries_per_pw", 1); got != 2.0/3 {
		t.Errorf("DistFraction(1) = %v, want 2/3", got)
	}
	if got := snap.DistFraction("oc.entries_per_pw", 2); got != 0 {
		t.Errorf("DistFraction(2) = %v, want 0", got)
	}

	// Snapshot is a copy: later increments must not leak in.
	hits.Add(100)
	if got := snap.Counter("oc.hits"); got != 7 {
		t.Errorf("snapshot mutated by live counter: %d", got)
	}
}

func TestRegistryScopeNesting(t *testing.T) {
	r := NewRegistry()
	bpu := r.Scope("bpu")
	tage := bpu.Scope("tage")
	c := tage.Counter("lookups")
	c.Add(3)
	if got := r.CounterValue("bpu.tage.lookups"); got != 3 {
		t.Errorf("scoped counter = %d, want 3", got)
	}
	var h Counter
	bpu.RegisterCounter("mispredicts", &h)
	bpu.RegisterGauge("accuracy", func() float64 { return 1 })
	if got := r.GaugeValue("bpu.accuracy"); got != 1 {
		t.Errorf("scoped gauge = %v, want 1", got)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Counter("x")
}

func TestRegistryMissingLookupPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("missing counter lookup did not panic")
		}
	}()
	r.CounterValue("nope")
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b").Add(42)
	h := NewHistogram(1, 2)
	h.Observe(1)
	r.RegisterHist("a.h", h)
	fam := r.Family("a.modes", "mode", "sampled", "full")
	fam.Inc("full")
	fam.Inc("full")

	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if got := back.Counter("a.b"); got != 42 {
		t.Errorf("round-tripped counter = %d, want 42", got)
	}
	sm, _ := back.Sample("a.modes")
	wantSeries := []Series{{Label: "mode", Value: "sampled", Count: 0}, {Label: "mode", Value: "full", Count: 2}}
	if sm.Kind != "family" || sm.Count != 2 || len(sm.Series) != 2 || sm.Series[0] != wantSeries[0] || sm.Series[1] != wantSeries[1] {
		t.Errorf("round-tripped family = %+v, want kind family, count 2, series %+v", sm, wantSeries)
	}
	// Non-family samples add no field: snapshots written before families
	// existed decode unchanged.
	if strings.Count(buf.String(), `"series"`) != 1 {
		t.Errorf("series field outside the family sample:\n%s", buf.String())
	}
}

func TestSnapshotPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("oc.hits").Add(5)
	r.RegisterGauge("oc.hit_rate", func() float64 { return 0.25 })
	var m Mean
	m.ObserveN(2, 4)
	r.RegisterMean("rob.occ", &m)
	h := NewHistogram(10, 20)
	h.Observe(5)
	h.Observe(15)
	h.Observe(30)
	r.RegisterHist("entry.size", h)
	var d Distribution
	d.Observe(2)
	r.RegisterDist("entries_per_pw", &d)
	fam := r.Family("simulations_total", "mode", "sampled", "full")
	fam.Inc("full")

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf, "uopsim"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE uopsim_oc_hits counter",
		"uopsim_oc_hits 5",
		"uopsim_oc_hit_rate 0.25",
		"uopsim_rob_occ_sum 8",
		"uopsim_rob_occ_count 4",
		"# TYPE uopsim_entry_size histogram",
		`uopsim_entry_size_bucket{le="10"} 1`,
		`uopsim_entry_size_bucket{le="20"} 2`,
		`uopsim_entry_size_bucket{le="+Inf"} 3`,
		"uopsim_entry_size_count 3",
		`uopsim_entries_per_pw{key="2"} 1`,
		"# TYPE uopsim_simulations_total counter\n" +
			`uopsim_simulations_total{mode="sampled"} 0` + "\n" +
			`uopsim_simulations_total{mode="full"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n---\n%s", want, out)
		}
	}
}

// TestHistogramQuantiles pins P50/P95/P99 on known distributions, including
// the bucket-edge cases the interpolation must get exactly right.
func TestHistogramQuantiles(t *testing.T) {
	tests := []struct {
		name    string
		bounds  []int
		samples []int
		q       float64
		want    float64
	}{
		// 100 samples uniform in one bucket (0,10]: rank 50 → midpoint.
		{"uniform-p50", []int{10}, rep(1, 100), 0.50, 5},
		{"uniform-p95", []int{10}, rep(1, 100), 0.95, 9.5},
		{"uniform-p99", []int{10}, rep(1, 100), 0.99, 9.9},
		// Exactly half the mass in (0,10], half in (10,20]: P50 rank lands
		// on the boundary and must return the bucket edge, 10, exactly.
		{"edge-p50", []int{10, 20}, append(rep(5, 50), rep(15, 50)...), 0.50, 10},
		// All mass at the boundary bucket: every quantile interpolates
		// within (10,20].
		{"second-bucket-p50", []int{10, 20}, rep(15, 100), 0.50, 15},
		{"second-bucket-p95", []int{10, 20}, rep(15, 100), 0.95, 19.5},
		// 90/10 split across (0,10] and (10,20]: P95 is halfway through the
		// second bucket's 10 samples → rank 95, frac 0.5 → 15.
		{"split-p95", []int{10, 20}, append(rep(5, 90), rep(15, 10)...), 0.95, 15},
		{"split-p99", []int{10, 20}, append(rep(5, 90), rep(15, 10)...), 0.99, 19},
		// q=1 on the edge case returns the top bound exactly.
		{"edge-p100", []int{10, 20}, append(rep(5, 50), rep(15, 50)...), 1.0, 20},
		// Overflow samples clamp to the last finite bound.
		{"overflow-p99", []int{10}, rep(99, 100), 0.99, 10},
		// q=0 returns the lower edge of the first occupied bucket.
		{"p0", []int{10, 20}, rep(15, 4), 0.0, 10},
		// Empty histogram.
		{"empty", []int{10}, nil, 0.5, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram(tc.bounds...)
			for _, x := range tc.samples {
				h.Observe(x)
			}
			if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
		})
	}
}

// rep returns n copies of x.
func rep(x, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = x
	}
	return out
}

// TestConcurrentInstruments bumps a function-read atomic counter, a
// counter family and a locked histogram from many goroutines while
// snapshots and Prometheus renders run alongside (run under -race); the
// final totals must be exact.
func TestConcurrentInstruments(t *testing.T) {
	const workers, perWorker = 8, 1000
	r := NewRegistry()
	var n atomic.Uint64
	r.RegisterCounterFunc("svc.requests", func() uint64 { return n.Load() })
	fam := r.Family("svc.by_mode", "mode", "sampled", "full")
	lat := NewLockedHist(1, 10, 100)
	r.RegisterLockedHist("svc.latency", lat)
	r.RegisterLockedMean("svc.latency_mean", lat)

	var bumpers, readers sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				if err := snap.WritePrometheus(io.Discard, "svc"); err != nil {
					t.Error(err)
					return
				}
				lat.Quantiles(0.5, 0.99)
			}
		}()
	}
	for w := 0; w < workers; w++ {
		bumpers.Add(1)
		go func(w int) {
			defer bumpers.Done()
			mode := []string{"sampled", "full"}[w%2]
			for i := 0; i < perWorker; i++ {
				n.Add(1)
				fam.Inc(mode)
				lat.Observe(i % 200)
			}
		}(w)
	}
	bumpers.Wait()
	close(stop)
	readers.Wait()

	snap := r.Snapshot()
	const total = workers * perWorker
	if got := snap.Counter("svc.requests"); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := snap.Counter("svc.by_mode"); got != total {
		t.Errorf("family total = %d, want %d", got, total)
	}
	if s, f := fam.Value("sampled"), fam.Value("full"); s != total/2 || f != total/2 {
		t.Errorf("family split = %d/%d, want %d each", s, f, total/2)
	}
	if got := snap.Counter("svc.latency"); got != total {
		t.Errorf("histogram total = %d, want %d", got, total)
	}
	if sm, _ := snap.Sample("svc.latency_mean"); sm.Count != total || sm.Value != 99.5 {
		t.Errorf("mean sample = %+v, want count %d mean 99.5", sm, total)
	}
}
