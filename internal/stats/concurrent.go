package stats

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// CounterFamily is a set of concurrency-safe counters sharing one metric
// path, told apart by the value of one label (uopsimd's completions by
// "mode", uopgate's requests by "node"). The label values are fixed when
// the family is registered (Registry.Family); snapshots and the
// Prometheus exporter list them in that order.
type CounterFamily struct {
	label  string
	values []string
	index  map[string]int // immutable after construction
	counts []atomic.Uint64
}

func newCounterFamily(label string, values []string) *CounterFamily {
	f := &CounterFamily{
		label:  label,
		values: append([]string(nil), values...),
		index:  make(map[string]int, len(values)),
		counts: make([]atomic.Uint64, len(values)),
	}
	for i, v := range values {
		if _, dup := f.index[v]; dup {
			panic(fmt.Sprintf("stats: duplicate value %q for label %q", v, label))
		}
		f.index[v] = i
	}
	return f
}

// slot returns value's counter. An unregistered value is a wiring bug, not
// a runtime condition, so it panics like a registry lookup miss.
func (f *CounterFamily) slot(value string) *atomic.Uint64 {
	i, ok := f.index[value]
	if !ok {
		panic(fmt.Sprintf("stats: %q is not a registered value of label %q", value, f.label))
	}
	return &f.counts[i]
}

// Inc increments value's counter by one.
func (f *CounterFamily) Inc(value string) { f.slot(value).Add(1) }

// Value returns value's current count.
func (f *CounterFamily) Value(value string) uint64 { return f.slot(value).Load() }

func (f *CounterFamily) read(s *Sample) {
	s.Series = make([]Series, len(f.values))
	for i, v := range f.values {
		s.Series[i] = Series{Label: f.label, Value: v, Count: f.counts[i].Load()}
		s.Count += s.Series[i].Count
	}
	s.Value = float64(s.Count)
}

// LockedHist is a Histogram, plus a running Mean of the same samples,
// behind one mutex: the shape a service needs when handler goroutines
// observe while a scrape reads. Registered (Registry.RegisterLockedHist,
// RegisterLockedMean), Snapshot reads it under the same lock.
type LockedHist struct {
	mu   sync.Mutex
	hist *Histogram //uopvet:guardedby mu
	mean Mean       //uopvet:guardedby mu
}

// NewLockedHist builds a locked histogram with the given ascending
// inclusive upper bounds (see NewHistogram).
func NewLockedHist(bounds ...int) *LockedHist {
	return &LockedHist{hist: NewHistogram(bounds...)}
}

// Observe records one sample in the histogram and the mean.
func (h *LockedHist) Observe(x int) {
	h.mu.Lock()
	h.hist.Observe(x)
	h.mean.Observe(float64(x))
	h.mu.Unlock()
}

// Quantiles estimates each q-quantile (see Histogram.Quantile) from one
// consistent view of the histogram.
func (h *LockedHist) Quantiles(qs ...float64) []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = h.hist.Quantile(q)
	}
	return out
}

// Mean returns the mean of the observed samples, 0 before any.
func (h *LockedHist) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.mean.Value()
}

func (h *LockedHist) readHist(s *Sample) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.hist.read(s)
}

func (h *LockedHist) readMean(s *Sample) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.mean.read(s)
}
