package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"uopsim"
)

var update = flag.Bool("update", false, "rewrite expected_digests.json from the current simulator")

// TestExpectedDigests re-simulates every sim_sweep point and compares its
// metrics digest with the one the benchmark checks against.
func TestExpectedDigests(t *testing.T) {
	want := map[string]string{}
	if err := json.Unmarshal(expectedDigestsJSON, &want); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, p := range simPoints(fullScale) {
		m, _, err := simulate(p)
		if err != nil {
			t.Fatal(err)
		}
		got[p.key()] = metricsDigest(m)
		if !*update && got[p.key()] != want[p.key()] {
			t.Errorf("%s: digest %s, want %s", p.key(), got[p.key()], want[p.key()])
		}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("expected_digests.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// simulate runs one point through the uopsim facade and returns its
// measured-interval metrics and the end-of-run registry snapshot (which
// counts warmup and measured work alike).
func simulate(p simPoint) (uopsim.Metrics, uopsim.StatsSnapshot, error) {
	sim, err := uopsim.NewSimulator(p.scheme.Configure(p.capacity), p.workload)
	if err != nil {
		return uopsim.Metrics{}, uopsim.StatsSnapshot{}, err
	}
	m, err := sim.RunMeasured(p.warmup, p.measure)
	if err != nil {
		return uopsim.Metrics{}, uopsim.StatsSnapshot{}, fmt.Errorf("%s: %w", p.key(), err)
	}
	return m, sim.StatsSnapshot(), nil
}
