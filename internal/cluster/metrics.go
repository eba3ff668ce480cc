package cluster

import (
	"sync/atomic"
	"time"

	"uopsim/internal/stats"
)

// gwMetrics owns the gateway's stats.Registry plus the per-shard
// instruments. Shard names are URLs — not legal registry path segments —
// so per-shard counts are counter families labelled by node, and the
// per-shard latency histograms (read only by /v1/stats quantiles) live
// beside the registry in a name-keyed map fixed at construction. Every
// instrument is concurrency-safe on its own.
type gwMetrics struct {
	reg *stats.Registry

	requests     atomic.Uint64
	errors       atomic.Uint64
	spills       atomic.Uint64
	peerReads    atomic.Uint64
	replications atomic.Uint64
	replFailed   atomic.Uint64
	sweepLines   atomic.Uint64
	retries      atomic.Uint64

	nodeRequests *stats.CounterFamily
	nodeErrors   *stats.CounterFamily
	nodeLatency  map[string]*stats.LockedHist // immutable after construction
}

// The counters above: requests (API requests routed), errors (requests no
// shard could serve, or that a shard failed), spills (points served by a
// non-owner because the owner was down), peer_reads (points served from a
// spill-over neighbor while the owner was back up — the read-through
// path), replications / repl_failed (spilled blobs copied back to their
// owner), sweep_lines (scatter-gather lines merged), retries (per-point
// reroutes after a shard failure). Per shard: requests and errors as seen
// from the gateway, and proxied-request latency in ms.

func newGwMetrics(nodeNames []string, ring *Ring, mem *membership) *gwMetrics {
	m := &gwMetrics{
		reg:         stats.NewRegistry(),
		nodeLatency: make(map[string]*stats.LockedHist, len(nodeNames)),
	}
	for _, name := range nodeNames {
		m.nodeLatency[name] = stats.NewLockedHist(1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000)
	}
	m.nodeRequests = m.reg.Family("node.requests_total", "node", nodeNames...)
	m.nodeErrors = m.reg.Family("node.errors_total", "node", nodeNames...)
	sc := m.reg.Scope("gateway")
	sc.RegisterCounterFunc("requests", func() uint64 { return m.requests.Load() })
	sc.RegisterCounterFunc("errors", func() uint64 { return m.errors.Load() })
	sc.RegisterCounterFunc("spills", func() uint64 { return m.spills.Load() })
	sc.RegisterCounterFunc("peer_reads", func() uint64 { return m.peerReads.Load() })
	sc.RegisterCounterFunc("replications", func() uint64 { return m.replications.Load() })
	sc.RegisterCounterFunc("repl_failed", func() uint64 { return m.replFailed.Load() })
	sc.RegisterCounterFunc("sweep_lines", func() uint64 { return m.sweepLines.Load() })
	sc.RegisterCounterFunc("retries", func() uint64 { return m.retries.Load() })
	sc.RegisterGauge("ring_nodes", func() float64 { return float64(ring.Len()) })
	sc.RegisterGauge("ring_vnodes", func() float64 { return float64(ring.VNodes()) })
	sc.RegisterGauge("ring_points", func() float64 { return float64(ring.Points()) })
	sc.RegisterGauge("nodes_alive", func() float64 { return float64(mem.aliveCount()) })
	sc.RegisterGauge("markdowns", func() float64 { md, _, _ := mem.counters(); return float64(md) })
	sc.RegisterGauge("rejoins", func() float64 { _, rj, _ := mem.counters(); return float64(rj) })
	sc.RegisterGauge("probe_rounds", func() float64 { _, _, pr := mem.counters(); return float64(pr) })
	return m
}

// observeNode records one proxied request to a shard: outcome plus
// end-to-end latency (queueing on the shard included — that is what the
// gateway's caller experiences).
func (m *gwMetrics) observeNode(name string, d time.Duration, failed bool) {
	m.nodeRequests.Inc(name)
	if failed {
		m.nodeErrors.Inc(name)
	}
	m.nodeLatency[name].Observe(int(d.Milliseconds()))
}

// balance is the max/mean ratio of per-shard request counts (1.0 =
// perfectly even; 0 before any traffic).
func (m *gwMetrics) balance() float64 {
	var total, max uint64
	for name := range m.nodeLatency {
		n := m.nodeRequests.Value(name)
		total += n
		if n > max {
			max = n
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(m.nodeLatency))
	return float64(max) / mean
}
