package uopsim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"sync"
	"testing"

	"uopsim"
)

// update rewrites the testdata files the tests compare against
// (golden_metrics.json, sampled_digests.json) from the current simulator.
var update = flag.Bool("update", false, "rewrite the testdata golden files from the current simulator")

// sampledDigestWorkloads is the Table II benchmark set.
var sampledDigestWorkloads = []string{"bm_cc", "nutch", "redis", "bm_x64"}

const (
	sampledDigestCapacity = 2048
	sampledDigestWarmup   = 30_000
	sampledDigestMeasure  = 300_000
)

// TestSampledDigests pins interval-sampled output bit-for-bit: every
// Table II workload x scheme point run through RunSampled must hash to the
// SHA-256 of its JSON-encoded Metrics in testdata/sampled_digests.json.
// Fast-forwarding, predictor warming and the extrapolation all feed these
// digests, so a change to any of them that moves a number shows here.
// Regenerate with go test -run TestSampledDigests -update only for a
// change that intentionally alters simulated behaviour.
func TestSampledDigests(t *testing.T) {
	const path = "testdata/sampled_digests.json"
	want := map[string]string{}
	if !*update {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	got := map[string]string{}
	t.Run("points", func(t *testing.T) {
		for _, wl := range sampledDigestWorkloads {
			for _, sc := range uopsim.Schemes(2) {
				wl, sc := wl, sc
				key := wl + "/" + sc.Name
				t.Run(key, func(t *testing.T) {
					t.Parallel()
					sim, err := uopsim.NewSimulator(sc.Configure(sampledDigestCapacity), wl)
					if err != nil {
						t.Fatal(err)
					}
					m, err := sim.RunSampled(sampledDigestWarmup, sampledDigestMeasure,
						uopsim.Sampling{Enabled: true, Intervals: 4})
					if err != nil {
						t.Fatal(err)
					}
					// A disabled Sampling falls back to full simulation, which
					// would leave fast-forwarding unpinned.
					if n := sim.StatsSnapshot().Value("sampling.skipped_insts"); n == 0 {
						t.Fatal("run fast-forwarded no instructions: sampling did not run")
					}
					b, err := json.Marshal(m)
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(b)
					d := hex.EncodeToString(sum[:])
					mu.Lock()
					got[key] = d
					mu.Unlock()
					if !*update && d != want[key] {
						t.Errorf("sampled metrics digest %s, want %s", d, want[key])
					}
				})
			}
		}
	})
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
