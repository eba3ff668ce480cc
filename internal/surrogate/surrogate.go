// Package surrogate is the fast tier behind uopsimd's /v1/estimate: a
// stdlib-only k-nearest-neighbor / inverse-distance local-interpolation
// regressor over the canonicalized runcache.Features vectors the warehouse
// stores with every design point. The TAO direction from the roadmap: most
// design-space queries are near points already simulated, so a local model
// answers them in microseconds and only genuinely novel points pay for a
// cycle-accurate run.
//
// The model splits each feature vector by what the values are, not by a
// schema: values that parse as numbers (booleans count as 0/1) become
// regression dimensions, everything else — workload names, suite labels —
// is categorical. Points are partitioned by their exact categorical
// signature and k-NN runs only within a partition, so the model never
// interpolates between workloads; numeric dimensions are normalized to
// z-scores over the training set so capacity (thousands of uops) and
// boolean scheme knobs (0/1) weigh comparably.
//
// Every prediction carries a confidence in (0, 1]: 1 for an exact
// feature-vector match (the stored answer IS the answer), otherwise a
// function of the nearest neighbor's distance and the worst local spread
// across the predicted metrics among the neighbors — far neighbors or a
// surface that is steep in any metric both push confidence down, which is
// exactly when the caller should fall through to real simulation. See
// DESIGN.md §12.
package surrogate

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"uopsim/internal/runcache"
	"uopsim/internal/stats"
)

// Options tunes the model. Zero values select the documented defaults.
type Options struct {
	// K is the neighbor count consulted per prediction (default 4).
	K int
	// RetrainPending caps how many corpus edits (inserts + removals) may
	// accumulate before a refit, regardless of model size (default 64).
	RetrainPending int
	// RetrainFraction refits when edits exceed this fraction of the fitted
	// live points (default 0.25). The effective trigger is
	// min(RetrainPending, max(1, ceil(RetrainFraction×fitted))) — a small
	// or empty model refits on nearly every insert, so coverage appears
	// immediately under load.
	RetrainFraction float64
	// DistanceScale is the normalized nearest-neighbor distance (per-
	// dimension RMS, in z-score units) at which confidence halves (default
	// 2.0 — calibrated so adjacent-capacity neighbors on the sweep grid
	// clear the 0.7 serving gate when their metric surface is flat, see
	// TestEstimateHeldOutAccuracy in internal/experiments).
	DistanceScale float64
	// SpreadScale is the weighted relative metric spread among neighbors at
	// which confidence halves (default 0.25).
	SpreadScale float64
	// ReferenceMetric optionally names one metric whose local spread feeds
	// the confidence. Empty (the default) scores the spread of EVERY
	// predicted metric and takes the worst: a surface that is flat in upc
	// but steep in oc_fetch_ratio must not look trustworthy just because
	// upc was the one consulted.
	ReferenceMetric string
}

func (o Options) withDefaults() Options {
	if o.K <= 0 {
		o.K = 4
	}
	if o.RetrainPending <= 0 {
		o.RetrainPending = 64
	}
	if o.RetrainFraction <= 0 {
		o.RetrainFraction = 0.25
	}
	if o.DistanceScale <= 0 {
		o.DistanceScale = 2.0
	}
	if o.SpreadScale <= 0 {
		o.SpreadScale = 0.25
	}
	return o
}

// Point is one training example: a design point's identity, its stored
// feature vector, and the derived metrics the model will predict.
type Point struct {
	Fingerprint runcache.Fingerprint
	Features    runcache.Features
	Metrics     map[string]float64
}

// Prediction is one answer from the fast tier.
type Prediction struct {
	// Metrics is the inverse-distance-weighted interpolation of the
	// neighbors' metric vectors (or the stored vector verbatim on an exact
	// match).
	Metrics map[string]float64
	// Confidence is 1 for an exact match, otherwise decays with neighbor
	// distance and local metric spread.
	Confidence float64
	// Neighbors is how many live points the interpolation used.
	Neighbors int
	// Distance is the normalized distance to the nearest neighbor used
	// (0 on an exact match).
	Distance float64
	// Exact reports a canonical feature-vector match.
	Exact bool
}

// Stats is a point-in-time view of the model, shaped for /v1/stats.
type Stats struct {
	FittedPoints  int    `json:"fitted_points"`
	LivePoints    int    `json:"live_points"`
	PendingEdits  int    `json:"pending_edits"`
	Partitions    int    `json:"partitions"`
	Dimensions    int    `json:"dimensions"`
	Retrains      uint64 `json:"retrains"`
	Predictions   uint64 `json:"predictions"`
	ExactHits     uint64 `json:"exact_hits"`
	Interpolated  uint64 `json:"interpolated"`
	NoPrediction  uint64 `json:"no_prediction"`
	Inserts       uint64 `json:"inserts"`
	Removes       uint64 `json:"removes"`
	SkippedPoints uint64 `json:"skipped_points"`
}

// exactVal is one entry of the exact-match map: the stored metrics for a
// canonical feature string, plus the fingerprint that owns it (removal must
// not delete an entry a newer point with the same features now owns).
type exactVal struct {
	fp      runcache.Fingerprint
	metrics map[string]float64
}

// partition is the fitted k-NN state for one categorical signature.
type partition struct {
	tree *kdNode
	pts  []*mpoint
}

// fitState is everything derived by one fit: the numeric layout, the
// normalization, and the per-signature trees. Replaced wholesale on
// retrain; tombstones accumulate in byFP between fits.
type fitState struct {
	dims  []string // sorted numeric feature keys
	index map[string]int
	mean  []float64
	scale []float64
	parts map[string]*partition
	byFP  map[runcache.Fingerprint]*mpoint
	dead  int // tombstoned points still referenced by trees
}

// Model is the surrogate. All methods are safe for concurrent use;
// predictions share a read lock, mutations (Fit/Insert/Remove) take the
// write lock, and a retrain is a mutation like any other.
type Model struct {
	opts Options

	mu sync.RWMutex
	// live training set, source of truth
	corpus map[runcache.Fingerprint]Point //uopvet:guardedby mu
	// canonical features → stored answer
	exact  map[string]exactVal             //uopvet:guardedby mu
	canon  map[runcache.Fingerprint]string //uopvet:guardedby mu
	fitted *fitState                       //uopvet:guardedby mu
	// corpus changes since the last fit
	edits int //uopvet:guardedby mu

	retrains     atomic.Uint64
	predictions  atomic.Uint64
	exactHits    atomic.Uint64
	interpolated atomic.Uint64
	noPrediction atomic.Uint64
	inserts      atomic.Uint64
	removes      atomic.Uint64
	skipped      atomic.Uint64
}

// New builds an empty model. It predicts nothing (beyond exact matches)
// until Fit or enough Inserts give it points.
func New(opts Options) *Model {
	return &Model{
		opts:   opts.withDefaults(),
		corpus: make(map[runcache.Fingerprint]Point),
		exact:  make(map[string]exactVal),
		canon:  make(map[runcache.Fingerprint]string),
	}
}

// splitFeatures separates a feature vector into its numeric dimensions and
// its categorical signature (the sorted non-numeric pairs, canonically
// joined). Duplicate numeric keys keep the last value, matching the
// last-wins convention of the feature flattening.
func splitFeatures(feat runcache.Features) (num map[string]float64, sig string) {
	num = make(map[string]float64, len(feat))
	var cat runcache.Features
	for _, kv := range feat {
		if v, ok := kv.Numeric(); ok {
			num[kv.Key] = v
		} else {
			cat = append(cat, kv)
		}
	}
	sort.Slice(cat, func(i, j int) bool {
		if cat[i].Key != cat[j].Key {
			return cat[i].Key < cat[j].Key
		}
		return cat[i].Value < cat[j].Value
	})
	return num, cat.Canonical()
}

// Fit replaces the whole training set and rebuilds the fitted state.
// Points with duplicate fingerprints keep the last occurrence; points with
// no metrics are skipped.
func (m *Model) Fit(points []Point) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.corpus = make(map[runcache.Fingerprint]Point, len(points))
	m.exact = make(map[string]exactVal, len(points))
	m.canon = make(map[runcache.Fingerprint]string, len(points))
	for _, p := range points {
		m.addCorpusLocked(p)
	}
	m.refitLocked()
}

// addCorpusLocked records one live point in the corpus and the exact map.
//
//uopvet:locked mu -- the Locked suffix is the contract
func (m *Model) addCorpusLocked(p Point) bool {
	if len(p.Metrics) == 0 || len(p.Features) == 0 {
		m.skipped.Add(1)
		return false
	}
	if old, ok := m.canon[p.Fingerprint]; ok && m.exact[old].fp == p.Fingerprint {
		delete(m.exact, old)
	}
	m.corpus[p.Fingerprint] = p
	c := p.Features.Canonical()
	m.exact[c] = exactVal{fp: p.Fingerprint, metrics: p.Metrics}
	m.canon[p.Fingerprint] = c
	return true
}

// Insert adds (or replaces) one point incrementally: the exact-match tier
// serves it immediately; the k-NN tier picks it up at the next retrain,
// which this edit counts toward. This is the warehouse-hook entry point —
// every simulation a fallthrough triggers lands here.
func (m *Model) Insert(p Point) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.addCorpusLocked(p) {
		return
	}
	m.inserts.Add(1)
	if m.fitted != nil {
		if mp, ok := m.fitted.byFP[p.Fingerprint]; ok && !mp.dead {
			mp.dead = true
			m.fitted.dead++
		}
	}
	m.edits++
	m.maybeRetrainLocked()
}

// Remove drops a point (warehouse eviction, deletion, or quarantine). The
// fitted copy is tombstoned — searches skip it immediately — and reclaimed
// by the next retrain.
func (m *Model) Remove(fp runcache.Fingerprint) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.corpus[fp]; !ok {
		return
	}
	delete(m.corpus, fp)
	if c, ok := m.canon[fp]; ok {
		if m.exact[c].fp == fp {
			delete(m.exact, c)
		}
		delete(m.canon, fp)
	}
	m.removes.Add(1)
	if m.fitted != nil {
		if mp, ok := m.fitted.byFP[fp]; ok && !mp.dead {
			mp.dead = true
			m.fitted.dead++
		}
	}
	m.edits++
	m.maybeRetrainLocked()
}

// retrainThresholdLocked is the edit count that triggers a refit:
// min(RetrainPending, max(1, ceil(RetrainFraction×live fitted points))).
//
//uopvet:locked mu -- the Locked suffix is the contract
func (m *Model) retrainThresholdLocked() int {
	live := 0
	if m.fitted != nil {
		live = len(m.fitted.byFP) - m.fitted.dead
	}
	t := int(math.Ceil(m.opts.RetrainFraction * float64(live)))
	if t < 1 {
		t = 1
	}
	if t > m.opts.RetrainPending {
		t = m.opts.RetrainPending
	}
	return t
}

//uopvet:locked mu -- the Locked suffix is the contract
func (m *Model) maybeRetrainLocked() {
	if m.edits >= m.retrainThresholdLocked() {
		m.refitLocked()
	}
}

// refitLocked rebuilds the fitted state from the corpus: numeric layout,
// z-score normalization, and one k-d tree per categorical signature.
// Deterministic by construction — fingerprint-sorted iteration, sorted
// dimension keys — so the same corpus always fits the same model.
//
//uopvet:locked mu -- the Locked suffix is the contract
func (m *Model) refitLocked() {
	fps := make([]runcache.Fingerprint, 0, len(m.corpus))
	for fp := range m.corpus {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })

	type encoded struct {
		p   Point
		num map[string]float64
		sig string
	}
	encs := make([]encoded, 0, len(fps))
	dimSet := make(map[string]bool)
	for _, fp := range fps {
		p := m.corpus[fp]
		num, sig := splitFeatures(p.Features)
		for k := range num {
			dimSet[k] = true
		}
		encs = append(encs, encoded{p: p, num: num, sig: sig})
	}
	dims := make([]string, 0, len(dimSet))
	for k := range dimSet {
		dims = append(dims, k)
	}
	sort.Strings(dims)

	st := &fitState{
		dims:  dims,
		index: make(map[string]int, len(dims)),
		mean:  make([]float64, len(dims)),
		scale: make([]float64, len(dims)),
		parts: make(map[string]*partition),
		byFP:  make(map[runcache.Fingerprint]*mpoint, len(encs)),
	}
	for i, d := range dims {
		st.index[d] = i
	}
	// Per-dimension mean and stddev over the points that carry the
	// dimension; a missing value imputes to the mean (normalized 0), and a
	// constant dimension keeps scale 1 so it contributes zero distance
	// instead of NaN. Accumulation iterates encs (fingerprint order), never
	// a map — float addition is order-sensitive at the bit level and the
	// fit must be a pure function of the corpus.
	count := make([]float64, len(dims))
	for _, e := range encs {
		for i, k := range dims {
			if v, ok := e.num[k]; ok {
				st.mean[i] += v
				count[i]++
			}
		}
	}
	for i := range st.mean {
		if count[i] > 0 {
			st.mean[i] /= count[i]
		}
	}
	for _, e := range encs {
		for i, k := range dims {
			if v, ok := e.num[k]; ok {
				d := v - st.mean[i]
				st.scale[i] += d * d
			}
		}
	}
	for i := range st.scale {
		if count[i] > 0 {
			st.scale[i] = math.Sqrt(st.scale[i] / count[i])
		}
		if st.scale[i] == 0 {
			st.scale[i] = 1
		}
	}
	for _, e := range encs {
		vec := make([]float64, len(dims))
		for i, k := range dims {
			if v, ok := e.num[k]; ok {
				vec[i] = (v - st.mean[i]) / st.scale[i]
			}
		}
		mp := &mpoint{fp: e.p.Fingerprint, vec: vec, metrics: e.p.Metrics}
		st.byFP[e.p.Fingerprint] = mp
		part := st.parts[e.sig]
		if part == nil {
			part = &partition{}
			st.parts[e.sig] = part
		}
		part.pts = append(part.pts, mp)
	}
	if len(dims) > 0 {
		for _, part := range st.parts {
			// Tree construction only orders within one partition; the map
			// range order is irrelevant to the result.
			tmp := make([]*mpoint, len(part.pts))
			copy(tmp, part.pts)
			part.tree = buildKD(tmp, 0, len(dims))
		}
	}
	m.fitted = st
	m.edits = 0
	m.retrains.Add(1)
}

// Predict estimates the metrics for one feature vector. ok is false when
// the model has nothing trustworthy to say — no fitted points, an unknown
// categorical signature, or numeric keys the fitted layout has never seen
// (an incomparable query must fall through to simulation, not alias to a
// distance-zero neighbor).
func (m *Model) Predict(feat runcache.Features) (Prediction, bool) {
	m.predictions.Add(1)
	m.mu.RLock()
	defer m.mu.RUnlock()
	if ev, ok := m.exact[feat.Canonical()]; ok {
		m.exactHits.Add(1)
		return Prediction{Metrics: ev.metrics, Confidence: 1, Neighbors: 1, Exact: true}, true
	}
	st := m.fitted
	if st == nil || len(st.dims) == 0 {
		m.noPrediction.Add(1)
		return Prediction{}, false
	}
	num, sig := splitFeatures(feat)
	part := st.parts[sig]
	if part == nil || part.tree == nil {
		m.noPrediction.Add(1)
		return Prediction{}, false
	}
	vec := make([]float64, len(st.dims))
	for k, v := range num {
		i, ok := st.index[k]
		if !ok {
			// A numeric key the layout has never seen would be silently
			// dropped from the distance — two different configs could
			// alias at distance zero. Refuse instead.
			m.noPrediction.Add(1)
			return Prediction{}, false
		}
		vec[i] = (v - st.mean[i]) / st.scale[i]
	}
	acc := knnAcc{k: m.opts.K, items: make([]neighbor, 0, m.opts.K)}
	part.tree.search(vec, 0, &acc)
	if len(acc.items) == 0 {
		m.noPrediction.Add(1)
		return Prediction{}, false
	}
	pred := m.interpolate(acc.items, len(st.dims))
	m.interpolated.Add(1)
	return pred, true
}

// interpolate blends the neighbors' metric vectors with inverse-square-
// distance weights and scores the blend's confidence.
func (m *Model) interpolate(nbrs []neighbor, dims int) Prediction {
	const eps = 1e-9
	weights := make([]float64, len(nbrs))
	var wsum float64
	for i, nb := range nbrs {
		weights[i] = 1 / (nb.d2 + eps)
		wsum += weights[i]
	}
	keys := make(map[string]bool)
	for _, nb := range nbrs {
		for k := range nb.p.metrics {
			keys[k] = true
		}
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make(map[string]float64, len(names))
	for _, name := range names {
		var v, w float64
		for i, nb := range nbrs {
			if mv, ok := nb.p.metrics[name]; ok {
				v += weights[i] * mv
				w += weights[i]
			}
		}
		if w > 0 {
			out[name] = v / w
		}
	}

	// Confidence inputs: the nearest neighbor's per-dimension RMS distance
	// (z-score units — "how far outside the local cloud is this query"),
	// and the weighted relative spread of the reference metric ("how steep
	// is the surface here"). Either one large means the interpolation is a
	// guess.
	d1 := math.Sqrt(nbrs[0].d2 / float64(dims))
	scored := names
	if m.opts.ReferenceMetric != "" {
		if _, ok := out[m.opts.ReferenceMetric]; ok {
			scored = []string{m.opts.ReferenceMetric}
		}
	}
	var spread float64
	for _, name := range scored {
		mean := out[name]
		if mean == 0 {
			continue
		}
		var varsum float64
		for i, nb := range nbrs {
			if mv, ok := nb.p.metrics[name]; ok {
				d := mv - mean
				varsum += weights[i] / wsum * d * d
			}
		}
		if s := math.Sqrt(varsum) / math.Abs(mean); s > spread {
			spread = s
		}
	}
	if len(nbrs) < 2 {
		// One neighbor means no local variance estimate at all — the zero
		// spread is ignorance, not agreement. Charge a full spread unit so
		// a lone point can never push a non-exact prediction past a
		// serving gate like uopsimd's 0.7.
		spread = m.opts.SpreadScale
	}
	conf := 1 / (1 + d1/m.opts.DistanceScale + spread/m.opts.SpreadScale)
	return Prediction{
		Metrics:    out,
		Confidence: conf,
		Neighbors:  len(nbrs),
		Distance:   d1,
	}
}

// Len reports the live corpus size.
func (m *Model) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.corpus)
}

// Stats snapshots the model's counters and shape.
func (m *Model) Stats() Stats {
	m.mu.RLock()
	st := Stats{
		LivePoints:   len(m.corpus),
		PendingEdits: m.edits,
	}
	if m.fitted != nil {
		st.FittedPoints = len(m.fitted.byFP) - m.fitted.dead
		st.Partitions = len(m.fitted.parts)
		st.Dimensions = len(m.fitted.dims)
	}
	m.mu.RUnlock()
	st.Retrains = m.retrains.Load()
	st.Predictions = m.predictions.Load()
	st.ExactHits = m.exactHits.Load()
	st.Interpolated = m.interpolated.Load()
	st.NoPrediction = m.noPrediction.Load()
	st.Inserts = m.inserts.Load()
	st.Removes = m.removes.Load()
	st.SkippedPoints = m.skipped.Load()
	return st
}

// RegisterStats exposes the model under sc (conventionally the "surrogate"
// scope): gauges only, since every number is a read of live model state.
func (m *Model) RegisterStats(sc stats.Scope) {
	sc.RegisterGauge("fitted_points", func() float64 { return float64(m.Stats().FittedPoints) })
	sc.RegisterGauge("live_points", func() float64 { return float64(m.Len()) })
	sc.RegisterGauge("pending_edits", func() float64 { return float64(m.Stats().PendingEdits) })
	sc.RegisterGauge("partitions", func() float64 { return float64(m.Stats().Partitions) })
	sc.RegisterGauge("dimensions", func() float64 { return float64(m.Stats().Dimensions) })
	sc.RegisterGauge("retrains", func() float64 { return float64(m.retrains.Load()) })
	sc.RegisterGauge("predictions", func() float64 { return float64(m.predictions.Load()) })
	sc.RegisterGauge("exact_hits", func() float64 { return float64(m.exactHits.Load()) })
	sc.RegisterGauge("interpolated", func() float64 { return float64(m.interpolated.Load()) })
	sc.RegisterGauge("no_prediction", func() float64 { return float64(m.noPrediction.Load()) })
	sc.RegisterGauge("inserts", func() float64 { return float64(m.inserts.Load()) })
	sc.RegisterGauge("removes", func() float64 { return float64(m.removes.Load()) })
	sc.RegisterGauge("skipped_points", func() float64 { return float64(m.skipped.Load()) })
}
