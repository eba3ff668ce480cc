package server

import (
	"errors"
	"io"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"uopsim/internal/experiments"
	"uopsim/internal/runcache"
)

// goldenMetricsPath is the /metrics exposition of the scripted sequence in
// TestMetricsGolden.
const goldenMetricsPath = "testdata/metrics.golden"

// runMetricsScript drives a fixed request sequence through a
// warehouse-backed 1-worker/1-slot daemon — a full simulate, a sampled
// simulate, an estimate of the full point (an exact surrogate hit), and
// one 429 — and returns the /metrics text.
func runMetricsScript(t *testing.T) string {
	t.Helper()
	s, _, url := newWarehouseServer(t, Config{Workers: 1, QueueDepth: 1})
	client := NewClient(url)
	full := experiments.PointRequest{Workload: "bm_ds", Warmup: 2_000, Measure: 30_000}
	if _, err := client.Simulate(SimulateRequest{PointRequest: full}); err != nil {
		t.Fatal(err)
	}
	sampled := full
	sampled.Sampling = &SamplingRequest{Intervals: 3, IntervalInsts: 4_000, WarmupInsts: 1_000}
	if _, err := client.Simulate(SimulateRequest{PointRequest: sampled}); err != nil {
		t.Fatal(err)
	}
	if est, err := client.Estimate(EstimateRequest{PointRequest: full}); err != nil || est.Source != "surrogate" {
		t.Fatalf("estimate of a simulated point = %+v, %v; want a surrogate hit", est, err)
	}
	rejectOnce(t, s, client)

	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// rejectOnce parks one stubbed request on the worker and one in the queue,
// draws exactly one 429, then releases both.
func rejectOnce(t *testing.T, s *Server, client *Client) {
	t.Helper()
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s.resolve = func(experiments.PointRequest) (experiments.PointResult, runcache.Resolution, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return experiments.PointResult{}, runcache.ResolvedCompute, nil
	}
	req := SimulateRequest{PointRequest: experiments.PointRequest{Workload: "bm_cc"}}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = client.Simulate(req)
		}(i)
		if i == 0 {
			<-started
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(s.pool.tasks) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
	var se *StatusError
	if _, err := client.Simulate(req); !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated simulate = %v, want a 429", err)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("parked request %d failed: %v", i, err)
		}
	}
}

// timingLine matches exposition lines whose values are wall-clock
// measurements; their values are masked before comparison.
var timingLine = regexp.MustCompile(`^uopsimd_server_(latency_ms_bucket|latency_mean_ms_sum|estimate_latency_us_bucket)[{ ]`)

// TestMetricsGolden pins the daemon's /metrics exposition for the scripted
// sequence: the same lines as the committed golden (as a multiset), and
// every # TYPE line directly above its own samples.
func TestMetricsGolden(t *testing.T) {
	got := runMetricsScript(t)
	want, err := os.ReadFile(goldenMetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	checkExposition(t, got, string(want), timingLine)
}

// checkExposition compares two Prometheus expositions as sorted line
// multisets (values on mask-matched lines ignored) and checks that got
// keeps each family's samples directly under its # TYPE line.
func checkExposition(t *testing.T, got, want string, mask *regexp.Regexp) {
	t.Helper()
	norm := func(text string) []string {
		lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
		for i, l := range lines {
			if mask.MatchString(l) {
				lines[i] = l[:strings.LastIndexByte(l, ' ')] + " <timing>"
			}
		}
		sort.Strings(lines)
		return lines
	}
	g, w := norm(got), norm(want)
	if strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Errorf("exposition lines differ from golden\n--- got\n%s\n--- want\n%s", strings.Join(g, "\n"), strings.Join(w, "\n"))
	}
	family := ""
	for _, l := range strings.Split(strings.TrimSuffix(got, "\n"), "\n") {
		if f, ok := strings.CutPrefix(l, "# TYPE "); ok {
			family = strings.Fields(f)[0]
			continue
		}
		name := strings.FieldsFunc(l, func(r rune) bool { return r == '{' || r == ' ' })[0]
		if suffix, ok := strings.CutPrefix(name, family); !ok || (suffix != "" && suffix != "_bucket" && suffix != "_sum" && suffix != "_count") {
			t.Errorf("sample %q is not under its # TYPE line (current family %q)", l, family)
		}
	}
}

// TestCompletedIsModeSum races resolutions of both modes against
// /v1/stats reads (run under -race): completed is derived from the same
// two per-mode loads, so every read satisfies sampled+full == completed.
func TestCompletedIsModeSum(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(s.Drain)
	const writers, perWriter = 4, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := s.statsResponse()
				if st.Simulations.Sampled+st.Simulations.Full != st.Pool.Completed {
					t.Errorf("sampled %d + full %d != completed %d", st.Simulations.Sampled, st.Simulations.Full, st.Pool.Completed)
					return
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(mode string) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				s.met.observe(time.Millisecond, mode, nil)
			}
		}([]string{"sampled", "full"}[w%2])
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if st := s.statsResponse(); st.Pool.Completed != writers*perWriter || st.Simulations.Sampled != writers*perWriter/2 {
		t.Fatalf("final stats pool=%+v simulations=%+v, want %d completions split evenly", st.Pool, st.Simulations, writers*perWriter)
	}
}
