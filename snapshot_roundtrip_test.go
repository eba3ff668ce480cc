package uopsim_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"uopsim"
	"uopsim/internal/stats"
)

// TestGoldenMetricsViaSnapshotRoundTrip proves that a serialized snapshot is
// a lossless substitute for a live one — the property the run cache's disk
// blobs depend on. Every golden point is simulated, its before/after
// registry snapshots are pushed through JSON (marshal, decode, validate),
// and the metrics re-derived from the decoded copies must still match
// testdata/golden_metrics.json bit-for-bit. A counter that loses integer
// precision in transit, a dropped sample, or an encoding that perturbs a
// float would all surface here as a golden mismatch.
func TestGoldenMetricsViaSnapshotRoundTrip(t *testing.T) {
	gf := loadGolden(t)
	roundTrip := func(t *testing.T, s uopsim.StatsSnapshot) uopsim.StatsSnapshot {
		t.Helper()
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := stats.DecodeSnapshot(b)
		if err != nil {
			t.Fatal(err)
		}
		return decoded
	}
	forEachGolden(t, gf, func(t *testing.T, cfg uopsim.Config, pt *goldenPoint) {
		sim, err := uopsim.NewSimulator(cfg, pt.Workload)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(gf.Warmup); err != nil {
			t.Fatal(err)
		}
		a := roundTrip(t, sim.StatsSnapshot())
		if err := sim.Run(gf.Measure); err != nil {
			t.Fatal(err)
		}
		b := roundTrip(t, sim.StatsSnapshot())
		m := uopsim.MetricsFromSnapshots(a, b)
		if !reflect.DeepEqual(m, pt.Metrics) {
			t.Errorf("round-tripped metrics diverged from golden\n got: %+v\nwant: %+v", m, pt.Metrics)
		}
	})
}
