package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// Kind identifies the instrument type behind a registered path.
type Kind uint8

const (
	// KindCounter is a monotonically increasing uint64 count.
	KindCounter Kind = iota
	// KindGauge is a point-in-time float64 read through a function.
	KindGauge
	// KindMean is a running mean with a sample count.
	KindMean
	// KindHist is a bucketed histogram.
	KindHist
	// KindDist is an exact small-integer-key distribution.
	KindDist
	// KindFamily is a set of counters told apart by one label's value.
	KindFamily
)

var kindNames = [...]string{"counter", "gauge", "mean", "hist", "dist", "family"}

// String names the kind ("counter", "gauge", "mean", "hist", "dist",
// "family").
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind?"
}

// instrument binds one dotted path to one live instrument; read fills a
// sample's value fields from its current state, outside the registry lock.
type instrument struct {
	path string
	kind Kind
	read func(*Sample)
}

// Registry is a hierarchical collection of named instruments. Components
// register their instruments once at construction under dotted paths
// ("oc.hits", "bpu.tage.mispredicts"); the hot path keeps incrementing the
// same plain-value instruments directly, so observability adds no locks and
// no indirection to the cycle loop. Snapshot reads every instrument into a
// stable-ordered value that the JSON and Prometheus exporters serialize.
//
// The registry structure — registration, lookup, and the snapshot's
// ordering state — is goroutine-safe behind one mutex. The plain Counter,
// Mean, Histogram and Distribution are single-goroutine by design (the
// cycle loop bumps them with no lock), so a simulator snapshots from its
// own goroutine; services register the concurrency-safe forms instead
// (atomic counters via RegisterCounterFunc, CounterFamily, LockedHist).
// Simulators pay one uncontended lock per registration/snapshot, never on
// the hot path.
type Registry struct {
	mu     sync.Mutex
	byPath map[string]*instrument //uopvet:guardedby mu
	insts  []*instrument          //uopvet:guardedby mu
	sorted bool                   //uopvet:guardedby mu
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byPath: make(map[string]*instrument)}
}

func (r *Registry) add(in *instrument) {
	if in.path == "" {
		panic("stats: empty metric path")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byPath[in.path]; dup {
		panic(fmt.Sprintf("stats: duplicate metric path %q", in.path))
	}
	r.byPath[in.path] = in
	r.insts = append(r.insts, in)
	r.sorted = false
}

// Counter registers a new counter at path and returns it.
func (r *Registry) Counter(path string) *Counter {
	c := &Counter{}
	r.RegisterCounter(path, c)
	return c
}

// RegisterCounter registers an existing counter at path. Components that
// embed plain-value counters register pointers to them so the hot path needs
// no registry involvement.
func (r *Registry) RegisterCounter(path string, c *Counter) {
	r.RegisterCounterFunc(path, c.Value)
}

// RegisterCounterFunc registers a counter whose count is read through fn
// at snapshot time — for a concurrency-safe counter, an atomic.Uint64's
// Load, or a count derived from other counters.
func (r *Registry) RegisterCounterFunc(path string, fn func() uint64) {
	r.add(&instrument{path: path, kind: KindCounter, read: func(s *Sample) {
		s.Count = fn()
		s.Value = float64(s.Count)
	}})
}

// RegisterGauge registers a derived value read through fn at snapshot time.
func (r *Registry) RegisterGauge(path string, fn func() float64) {
	r.add(&instrument{path: path, kind: KindGauge, read: func(s *Sample) { s.Value = fn() }})
}

// RegisterMean registers an existing running mean at path.
func (r *Registry) RegisterMean(path string, m *Mean) {
	r.add(&instrument{path: path, kind: KindMean, read: m.read})
}

// RegisterHist registers an existing histogram at path.
func (r *Registry) RegisterHist(path string, h *Histogram) {
	r.add(&instrument{path: path, kind: KindHist, read: h.read})
}

// RegisterDist registers an existing distribution at path.
func (r *Registry) RegisterDist(path string, d *Distribution) {
	r.add(&instrument{path: path, kind: KindDist, read: d.read})
}

// RegisterLockedHist registers a locked histogram at path; Snapshot reads
// it under the histogram's own lock.
func (r *Registry) RegisterLockedHist(path string, h *LockedHist) {
	r.add(&instrument{path: path, kind: KindHist, read: h.readHist})
}

// RegisterLockedMean registers the running mean a locked histogram keeps
// of its samples at path, read under the same lock as the histogram.
func (r *Registry) RegisterLockedMean(path string, h *LockedHist) {
	r.add(&instrument{path: path, kind: KindMean, read: h.readMean})
}

// Family registers a new counter family at path: one concurrency-safe
// counter per label value, the values fixed here.
func (r *Registry) Family(path, label string, values ...string) *CounterFamily {
	f := newCounterFamily(label, values)
	r.add(&instrument{path: path, kind: KindFamily, read: f.read})
	return f
}

// CounterValue returns the live value of the counter at path. It panics when
// the path is unregistered or not a counter: lookups are internal wiring, so
// a miss is a programming error, not a runtime condition.
func (r *Registry) CounterValue(path string) uint64 {
	return r.read(path, KindCounter).Count
}

// GaugeValue returns the live value of the gauge at path (same panic
// contract as CounterValue).
func (r *Registry) GaugeValue(path string) float64 {
	return r.read(path, KindGauge).Value
}

// read looks up the instrument at path, which must be of kind k, and reads
// it. The read runs after unlock: a gauge closure may read arbitrary
// locked subsystem state (engine stats, warehouse stats) and must not be
// able to deadlock back into this registry.
func (r *Registry) read(path string, k Kind) Sample {
	r.mu.Lock()
	in := r.byPath[path]
	r.mu.Unlock()
	if in == nil || in.kind != k {
		panic(fmt.Sprintf("stats: %q is not a registered %s", path, k))
	}
	s := Sample{Path: path, Kind: k.String()}
	in.read(&s)
	return s
}

// Scope returns a registration view that prefixes every path with
// "prefix.". Scopes nest, giving components dotted sub-trees without
// knowing where they are mounted.
func (r *Registry) Scope(prefix string) Scope {
	return Scope{r: r}.Scope(prefix)
}

// Scope is a prefixed registration view of a Registry.
type Scope struct {
	r      *Registry
	prefix string
}

// Scope nests: sc.Scope("tage") registers under "<prefix>.tage.".
func (s Scope) Scope(prefix string) Scope {
	if prefix == "" {
		return s
	}
	return Scope{r: s.r, prefix: s.prefix + prefix + "."}
}

// Counter registers a new counter under the scope and returns it.
func (s Scope) Counter(path string) *Counter { return s.r.Counter(s.prefix + path) }

// RegisterCounter registers an existing counter under the scope.
func (s Scope) RegisterCounter(path string, c *Counter) { s.r.RegisterCounter(s.prefix+path, c) }

// RegisterGauge registers a derived value under the scope.
func (s Scope) RegisterGauge(path string, fn func() float64) { s.r.RegisterGauge(s.prefix+path, fn) }

// RegisterMean registers an existing mean under the scope.
func (s Scope) RegisterMean(path string, m *Mean) { s.r.RegisterMean(s.prefix+path, m) }

// RegisterHist registers an existing histogram under the scope.
func (s Scope) RegisterHist(path string, h *Histogram) { s.r.RegisterHist(s.prefix+path, h) }

// RegisterDist registers an existing distribution under the scope.
func (s Scope) RegisterDist(path string, d *Distribution) { s.r.RegisterDist(s.prefix+path, d) }

// RegisterCounterFunc registers a function-read counter under the scope.
func (s Scope) RegisterCounterFunc(path string, fn func() uint64) {
	s.r.RegisterCounterFunc(s.prefix+path, fn)
}

// RegisterLockedHist registers a locked histogram under the scope.
func (s Scope) RegisterLockedHist(path string, h *LockedHist) {
	s.r.RegisterLockedHist(s.prefix+path, h)
}

// RegisterLockedMean registers a locked histogram's mean under the scope.
func (s Scope) RegisterLockedMean(path string, h *LockedHist) {
	s.r.RegisterLockedMean(s.prefix+path, h)
}

// Bucket is one histogram or distribution cell in a snapshot. For
// histograms Le is the bucket's inclusive upper bound (math.MaxInt64 marks
// the overflow bucket); for distributions Le is the exact observed key.
type Bucket struct {
	Le    int64  `json:"le"`
	Count uint64 `json:"count"`
}

// Series is one label value's count in a counter family's snapshot: the
// Prometheus series name{Label="Value"}.
type Series struct {
	Label string `json:"label"`
	Value string `json:"value"`
	Count uint64 `json:"count"`
}

// Sample is one instrument's state at snapshot time. Counter counts are
// carried in Count exactly (Value mirrors them as float64 for uniform
// consumers); gauges carry Value only, means their mean in Value and
// sample count in Count. A counter family carries one Series per label
// value, with Count their sum.
type Sample struct {
	Path    string   `json:"path"`
	Kind    string   `json:"kind"`
	Value   float64  `json:"value"`
	Count   uint64   `json:"count,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
	Series  []Series `json:"series,omitempty"`
}

// Snapshot is a stable-ordered (ascending by path) copy of every registered
// instrument's state.
type Snapshot struct {
	Samples []Sample `json:"samples"`
}

// Snapshot reads all instruments. The result is independent of the live
// instruments and of registration order.
func (r *Registry) Snapshot() Snapshot {
	// Sort and copy the instrument list under the lock; read the
	// instruments (and call gauge closures) after releasing it. The
	// comparator works on a local alias because closures are outside the
	// lock region, and sorting the shared backing array in place is what
	// makes the sorted bit durable.
	r.mu.Lock()
	insts := r.insts
	if !r.sorted {
		sort.Slice(insts, func(i, j int) bool { return insts[i].path < insts[j].path })
		r.sorted = true
	}
	snap := make([]*instrument, len(insts))
	copy(snap, insts)
	r.mu.Unlock()
	out := Snapshot{Samples: make([]Sample, len(snap))}
	for i, in := range snap {
		out.Samples[i] = Sample{Path: in.path, Kind: in.kind.String()}
		in.read(&out.Samples[i])
	}
	return out
}

func (m *Mean) read(s *Sample) {
	s.Value = m.Value()
	s.Count = m.Count()
}

func (h *Histogram) read(s *Sample) {
	s.Count = h.Total()
	s.Value = float64(h.Total())
	s.Buckets = make([]Bucket, h.Buckets())
	for i := range s.Buckets {
		le := int64(math.MaxInt64)
		if i < len(h.bounds) {
			le = int64(h.bounds[i])
		}
		s.Buckets[i] = Bucket{Le: le, Count: h.Count(i)}
	}
}

func (d *Distribution) read(s *Sample) {
	s.Count = d.Total()
	s.Value = float64(d.Total())
	keys := d.Keys()
	s.Buckets = make([]Bucket, 0, len(keys))
	for _, k := range keys {
		s.Buckets = append(s.Buckets, Bucket{Le: int64(k), Count: d.counts[k]})
	}
}

// Sample returns the sample at path, if present.
func (s Snapshot) Sample(path string) (Sample, bool) {
	i := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].Path >= path })
	if i < len(s.Samples) && s.Samples[i].Path == path {
		return s.Samples[i], true
	}
	return Sample{}, false
}

// Counter returns the exact count recorded at path (0 when absent).
func (s Snapshot) Counter(path string) uint64 {
	sm, ok := s.Sample(path)
	if !ok {
		return 0
	}
	return sm.Count
}

// Value returns the float value recorded at path (0 when absent).
func (s Snapshot) Value(path string) float64 {
	sm, ok := s.Sample(path)
	if !ok {
		return 0
	}
	return sm.Value
}

// HistFraction returns the fraction of histogram samples in bucket index i
// (overflow bucket is the last index), 0 when absent or empty.
func (s Snapshot) HistFraction(path string, i int) float64 {
	sm, ok := s.Sample(path)
	if !ok || sm.Count == 0 || i < 0 || i >= len(sm.Buckets) {
		return 0
	}
	return Ratio(sm.Buckets[i].Count, sm.Count)
}

// DistFraction returns the fraction of distribution samples with the exact
// key, 0 when absent or empty.
func (s Snapshot) DistFraction(path string, key int64) float64 {
	sm, ok := s.Sample(path)
	if !ok || sm.Count == 0 {
		return 0
	}
	for _, b := range sm.Buckets {
		if b.Le == key {
			return Ratio(b.Count, sm.Count)
		}
	}
	return 0
}

// WriteJSON serializes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// promName converts a dotted metric path to a Prometheus metric name.
func promName(namespace, path string) string {
	mangled := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, path)
	if namespace == "" {
		return mangled
	}
	return namespace + "_" + mangled
}

// WritePrometheus serializes the snapshot in the Prometheus text exposition
// format. Counters and gauges map directly; means become summaries
// (_sum/_count); histograms become cumulative-bucket histograms; exact
// distributions are emitted as one labeled gauge series per key; counter
// families as one labeled counter series per label value.
func (s Snapshot) WritePrometheus(w io.Writer, namespace string) error {
	for _, sm := range s.Samples {
		name := promName(namespace, sm.Path)
		var err error
		switch sm.Kind {
		case "counter":
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, sm.Count)
		case "gauge":
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, sm.Value)
		case "mean":
			_, err = fmt.Fprintf(w, "# TYPE %s summary\n%s_sum %g\n%s_count %d\n",
				name, name, sm.Value*float64(sm.Count), name, sm.Count)
		case "hist":
			if _, err = fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
				return err
			}
			cum := uint64(0)
			for _, b := range sm.Buckets {
				cum += b.Count
				le := "+Inf"
				if b.Le != math.MaxInt64 {
					le = fmt.Sprintf("%d", b.Le)
				}
				if _, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum); err != nil {
					return err
				}
			}
			_, err = fmt.Fprintf(w, "%s_count %d\n", name, sm.Count)
		case "dist":
			if _, err = fmt.Fprintf(w, "# TYPE %s gauge\n", name); err != nil {
				return err
			}
			for _, b := range sm.Buckets {
				if _, err = fmt.Fprintf(w, "%s{key=\"%d\"} %d\n", name, b.Le, b.Count); err != nil {
					return err
				}
			}
		case "family":
			if _, err = fmt.Fprintf(w, "# TYPE %s counter\n", name); err != nil {
				return err
			}
			for _, sr := range sm.Series {
				if _, err = fmt.Fprintf(w, "%s{%s=%q} %d\n", name, sr.Label, sr.Value, sr.Count); err != nil {
					return err
				}
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}
