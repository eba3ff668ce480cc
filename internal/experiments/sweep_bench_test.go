package experiments

import (
	"fmt"
	"runtime"
	"testing"

	"uopsim/internal/warehouse"
)

// benchJobs is a small scheme x workload grid, large enough that result
// delivery (worker -> collector handoff) is exercised many times per op.
func benchJobs() []job {
	var jobs []job
	for _, wl := range []string{"bm_ds", "redis"} {
		for _, sc := range Schemes(2) {
			jobs = append(jobs, job{wl, sc, 2048})
		}
	}
	return jobs
}

// BenchmarkSweepDelivery measures the full sweep at increasing worker
// counts. The sweep's out channel is buffered to len(jobs): with an
// unbuffered channel every result delivery was a rendezvous serialized
// behind the collector (and its SnapshotSink), so workers stalled exactly
// when results bunched up; buffering makes delivery non-blocking and the
// collector drains at its leisure. Compare parallel=1 vs higher counts to
// see scaling; on a single-CPU host the counts should be near-identical
// rather than degrading, since handoff no longer synchronizes goroutines.
func BenchmarkSweepDelivery(b *testing.B) {
	pars := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		pars = append(pars, n)
	}
	jobs := benchJobs()
	for _, par := range pars {
		b.Run(fmt.Sprintf("parallel-%d", par), func(b *testing.B) {
			p := Params{
				WarmupInsts:  2_000,
				MeasureInsts: 5_000,
				Workloads:    []string{"bm_ds", "redis"},
				Parallel:     par,
				// A sink on the collector loop is the contended case the
				// buffer exists for.
				SnapshotSink: func(Run) {},
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sweep(p, jobs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepDeliveryDeduped is the same grid with a shared engine: after
// the first op every point is a memo hit, so this isolates the sweep's
// scheduling and delivery overhead from simulation cost.
func BenchmarkSweepDeliveryDeduped(b *testing.B) {
	jobs := benchJobs()
	eng, _, err := NewEngine("", warehouse.Options{}, 0)
	if err != nil {
		b.Fatal(err)
	}
	p := Params{
		WarmupInsts:  2_000,
		MeasureInsts: 5_000,
		Workloads:    []string{"bm_ds", "redis"},
		Parallel:     2,
		Engine:       eng,
	}
	if _, err := sweep(p, jobs); err != nil { // prime the memo table
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep(p, jobs); err != nil {
			b.Fatal(err)
		}
	}
}
