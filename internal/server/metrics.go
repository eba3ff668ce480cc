package server

import (
	"sync/atomic"
	"time"

	"uopsim/internal/experiments"
	"uopsim/internal/stats"
	"uopsim/internal/surrogate"
	"uopsim/internal/warehouse"
)

// metrics owns the daemon's stats.Registry. Simulator registries are
// per-Sim and single-goroutine by design; the service's instruments are
// shared across handler goroutines, so every one is concurrency-safe on
// its own: atomic counters, a counter family, and locked histograms that
// the snapshot reads under their own locks. Gauges read pool atomics and
// the engine's own locked counters, so they are safe wherever Snapshot
// runs.
type metrics struct {
	reg *stats.Registry

	admitted      atomic.Uint64
	rejected      atomic.Uint64
	rejectedDrain atomic.Uint64
	failed        atomic.Uint64
	expired       atomic.Uint64
	timeouts      atomic.Uint64
	modes         *stats.CounterFamily
	latency       *stats.LockedHist

	estRequests    atomic.Uint64
	estServed      atomic.Uint64
	estFallthrough atomic.Uint64
	estLatency     *stats.LockedHist
}

// The fields above: admitted (requests accepted into the queue), rejected
// (429: queue full), rejectedDrain (503: draining), failed (resolutions
// that errored), expired (deadline passed before a worker picked it up),
// timeouts (handler stopped waiting, 504), modes (completions by mode —
// the only stored completion counts; completed is their sum, so
// sampled+full == completed by construction), latency (resolution ms,
// whose mean feeds Retry-After hints), and the estimate tier: estRequests
// (past validation), estServed (answered by the surrogate),
// estFallthrough (fell through to simulation), estLatency (µs).

func newMetrics(eng *experiments.Engine, p *pool, ws *warehouse.Store, sur *surrogate.Model) *metrics {
	m := &metrics{
		reg:     stats.NewRegistry(),
		latency: stats.NewLockedHist(1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000),
		// Microsecond buckets: the fast tier targets p99 < 1ms (1000µs);
		// the top buckets catch fall-through simulations.
		estLatency: stats.NewLockedHist(10, 25, 50, 100, 250, 500, 1000, 2500, 10000, 100000, 1000000, 10000000),
	}
	m.modes = m.reg.Family("simulations_total", "mode", "sampled", "full")
	sc := m.reg.Scope("server")
	sc.RegisterCounterFunc("admitted", func() uint64 { return m.admitted.Load() })
	sc.RegisterCounterFunc("rejected", func() uint64 { return m.rejected.Load() })
	sc.RegisterCounterFunc("rejected_draining", func() uint64 { return m.rejectedDrain.Load() })
	sc.RegisterCounterFunc("completed", func() uint64 { return m.modes.Value("sampled") + m.modes.Value("full") })
	sc.RegisterCounterFunc("failed", func() uint64 { return m.failed.Load() })
	sc.RegisterCounterFunc("expired", func() uint64 { return m.expired.Load() })
	sc.RegisterCounterFunc("timeouts", func() uint64 { return m.timeouts.Load() })
	sim := sc.Scope("simulations")
	sim.RegisterCounterFunc("sampled", func() uint64 { return m.modes.Value("sampled") })
	sim.RegisterCounterFunc("full", func() uint64 { return m.modes.Value("full") })
	sc.RegisterLockedHist("latency_ms", m.latency)
	sc.RegisterLockedMean("latency_mean_ms", m.latency)
	sc.RegisterGauge("workers", func() float64 { return float64(p.workers) })
	sc.RegisterGauge("queue_capacity", func() float64 { return float64(cap(p.tasks)) })
	sc.RegisterGauge("queue_depth", func() float64 { return float64(len(p.tasks)) })
	sc.RegisterGauge("inflight", func() float64 { return float64(p.inflight.Load()) })
	est := sc.Scope("estimate")
	est.RegisterCounterFunc("requests", func() uint64 { return m.estRequests.Load() })
	est.RegisterCounterFunc("served", func() uint64 { return m.estServed.Load() })
	est.RegisterCounterFunc("fallthrough", func() uint64 { return m.estFallthrough.Load() })
	est.RegisterLockedHist("latency_us", m.estLatency)
	eng.RegisterStats(m.reg.Scope("runcache"))
	if ws != nil {
		ws.RegisterStats(m.reg.Scope("warehouse"))
	}
	if sur != nil {
		sur.RegisterStats(m.reg.Scope("surrogate"))
	}
	return m
}

// observe records one finished resolution: a failure, or a completion
// counted under its simulation mode ("sampled" or "full"), plus latency.
func (m *metrics) observe(d time.Duration, mode string, err error) {
	if err != nil {
		m.failed.Add(1)
	} else {
		m.modes.Inc(mode)
	}
	m.latency.Observe(int(d.Milliseconds()))
}

// observeEstimate records one answered /v1/estimate: which tier served it
// and the end-to-end latency in microseconds (only answered requests — a
// fall-through that 429s or times out counts in the pool's counters, not
// here).
func (m *metrics) observeEstimate(d time.Duration, served bool) {
	if served {
		m.estServed.Add(1)
	} else {
		m.estFallthrough.Add(1)
	}
	m.estLatency.Observe(int(d.Microseconds()))
}
