package pipeline_test

import (
	"runtime"
	"testing"

	"uopsim/internal/experiments"
	"uopsim/internal/pipeline"
	"uopsim/internal/workload"
)

// tableII is the paper's Table II evaluation set, whose design points
// between them drive every uop cache fill path: fillAlone, tryRAC, tryPWAC,
// tryForcedPWAC and dedupe.
var tableII = []string{"bm_cc", "nutch", "redis", "bm_x64"}

// allocTable builds a 2048-uop design point for every Table II workload under
// each of the paper's five schemes, checks that it starts with no observer,
// warms it, hands it to setup (which may attach or detach an observer), and
// then requires the steady-state cycle loop to allocate nothing. Prediction windows are built in place in the PW ring,
// fetch items are filled in their pipe and group slots, group item slices
// are recycled (including those a flush discards), and uop cache entries and
// loop bodies are recycled by their caches, so after 100k warm instructions
// nothing on the path may touch the heap. check, when non-nil, runs after
// the measurement.
func allocTable(t *testing.T, setup func(*pipeline.Sim), check func(*testing.T)) {
	t.Helper()
	const (
		warm  = 100_000
		steps = 10_000
	)
	for _, name := range tableII {
		wl, err := workload.Shared(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range experiments.Schemes(2) {
			t.Run(name+"/"+sc.Name, func(t *testing.T) {
				s, err := pipeline.New(sc.Configure(2048), wl)
				if err != nil {
					t.Fatal(err)
				}
				// The no-observer rows measure the disabled hooks only if
				// that is how a Sim starts.
				if pipeline.ObserverOf(s) != nil {
					t.Fatal("observer should default to nil")
				}
				if err := s.Run(warm); err != nil {
					t.Fatal(err)
				}
				setup(s)
				perCycle := testing.AllocsPerRun(3, func() {
					for i := 0; i < steps; i++ {
						s.Step()
					}
				}) / steps
				if perCycle > 0 {
					t.Errorf("steady-state cycle loop allocates %.4f objects/cycle, want 0", perCycle)
				}
				if check != nil {
					check(t)
				}
			})
		}
	}
}

// TestCycleLoopAllocLean pins the cycle loop with no observer attached at
// zero allocations on the Table II set under all five schemes.
func TestCycleLoopAllocLean(t *testing.T) {
	allocTable(t, func(*pipeline.Sim) {}, nil)
}

// TestObserverDisabledAllocFree proves the event hooks are free once an
// observer is detached: a ring observer is attached and then removed before
// measuring, and the nil-checked hooks must leave the loop allocation-free.
func TestObserverDisabledAllocFree(t *testing.T) {
	allocTable(t, func(s *pipeline.Sim) {
		s.SetObserver(pipeline.NewRingObserver(1024))
		s.SetObserver(nil)
	}, nil)
}

// TestRingObserverAllocLean bounds the attached ring observer: the ring is
// preallocated, so tracing every pipeline event must add no heap traffic.
func TestRingObserverAllocLean(t *testing.T) {
	var ring *pipeline.RingObserver
	allocTable(t, func(s *pipeline.Sim) {
		ring = pipeline.NewRingObserver(1024)
		s.SetObserver(ring)
	}, func(t *testing.T) {
		if ring.Total() == 0 {
			t.Error("ring observer saw no events")
		}
	})
}

// pointBudget is one Table II workload's committed whole-point allocation
// budget: a baseline-scheme, 2048-uop design point built and run for 30k
// warm-up plus 100k measured instructions, construction included (the
// shared workload program is built beforehand and excluded).
type pointBudget struct {
	workload    string
	allocsPerKI float64 // heap objects per 1000 simulated instructions
	bytesPerKI  float64 // heap bytes per 1000 simulated instructions
}

// pointBudgets are the committed values TestPointAllocBudget gates against.
var pointBudgets = []pointBudget{
	{"bm_cc", 4.11, 14361},
	{"nutch", 4.11, 14180},
	{"redis", 4.11, 11796},
	{"bm_x64", 4.11, 11767},
}

// budgetTolerance is how far a measurement may sit from its committed
// budget, either way: higher is a regression; lower means the budget is
// stale and should be lowered to the new value in the same change.
const budgetTolerance = 0.10

// TestPointAllocBudget is the allocation gate for whole design points: with
// the cycle loop allocation-free (TestCycleLoopAllocLean and its observer
// variants), what a point allocates is its construction plus the
// measurement snapshot, and both are deterministic, so they are held to
// committed per-instruction values.
func TestPointAllocBudget(t *testing.T) {
	const warm, measure = 30_000, 100_000
	cfg := experiments.Schemes(2)[0].Configure(2048)
	for _, b := range pointBudgets {
		wl, err := workload.Shared(b.workload)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s, err := pipeline.New(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunMeasured(warm, measure); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		kinst := float64(warm+measure) / 1000
		allocs := float64(after.Mallocs-before.Mallocs) / kinst
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / kinst
		t.Logf("%s: %.2f allocs/kinst, %.0f B/kinst", b.workload, allocs, bytes)
		check := func(what string, got, budget float64) {
			if got > budget*(1+budgetTolerance) {
				t.Errorf("%s: %s %.2f exceeds the committed budget %.2f by more than %.0f%%",
					b.workload, what, got, budget, budgetTolerance*100)
			} else if got < budget*(1-budgetTolerance) {
				t.Errorf("%s: %s %.2f is more than %.0f%% under the committed budget %.2f; lower the budget",
					b.workload, what, got, budgetTolerance*100, budget)
			}
		}
		check("allocs/kinst", allocs, b.allocsPerKI)
		check("bytes/kinst", bytes, b.bytesPerKI)
	}
}
