package experiments

import (
	"encoding/json"

	"uopsim/internal/runcache"
	"uopsim/internal/surrogate"
	"uopsim/internal/warehouse"
	"uopsim/internal/workload"
)

// DefaultEstimateConfidence is the serving threshold uopsimd applies when
// -estimate-confidence is not set: predictions at or above it are served
// from the fast tier, below it fall through to real simulation.
const DefaultEstimateConfidence = 0.7

// DerivedMetricValues projects every derived metric the query vocabulary
// knows (upc, ipc, oc_hit_rate, ...) out of one decoded point. This is the
// metric vector the surrogate model trains on and predicts — the same
// names /v1/query serves, so an estimate and a query over the same point
// agree on what "upc" means.
func DerivedMetricValues(r PointResult) map[string]float64 {
	out := make(map[string]float64, len(derivedMetrics))
	for name, fn := range derivedMetrics {
		out[name] = fn(r)
	}
	return out
}

// Features builds the request's canonical feature vector — identical to
// the vector a sweep stores in the warehouse for the same design point, so
// a surrogate trained on warehouse records can answer wire requests.
func (r PointRequest) Features() (runcache.Features, error) {
	prof, err := workload.ByName(r.Workload)
	if err != nil {
		return nil, err
	}
	cfg, err := r.BuildConfig()
	if err != nil {
		return nil, err
	}
	return pointFeatures(r.params(), prof, cfg)
}

// FeaturesForPoint is the batch-API analogue of PointRequest.Features: the
// feature vector the sweep stores for one (workload, scheme, capacity)
// design point at p's run lengths.
func FeaturesForPoint(pt Point, p Params) (runcache.Features, error) {
	p = p.withDefaults()
	prof, err := workload.ByName(pt.Workload)
	if err != nil {
		return nil, err
	}
	return pointFeatures(p, prof, pt.Scheme.Configure(pt.Capacity))
}

// SurrogatePointFromRecord decodes one warehouse record into a training
// point: the stored feature vector plus the derived-metric projection of
// its PointResult blob. ok is false for records the model cannot learn
// from — legacy imports without a feature vector, blobs that do not decode,
// or blobs that fail the same semantic validation the engine applies.
func SurrogatePointFromRecord(rec warehouse.Record) (surrogate.Point, bool) {
	if len(rec.Features) == 0 {
		return surrogate.Point{}, false
	}
	var pr PointResult
	if err := json.Unmarshal(rec.Blob, &pr); err != nil {
		return surrogate.Point{}, false
	}
	if err := validatePoint(pr); err != nil {
		return surrogate.Point{}, false
	}
	return surrogate.Point{
		Fingerprint: rec.Fingerprint,
		Features:    rec.Features,
		Metrics:     DerivedMetricValues(pr),
	}, true
}

// NewStoreSurrogate trains a fresh surrogate model on every decodable
// record in ws, returning the model and how many records were skipped
// (legacy imports, undecodable blobs). The iteration is the warehouse's
// fingerprint order, and the fit is a pure function of the record set, so
// two daemons over identical warehouses serve identical estimates.
func NewStoreSurrogate(ws *warehouse.Store, opts surrogate.Options) (*surrogate.Model, int, error) {
	m := surrogate.New(opts)
	var pts []surrogate.Point
	skipped := 0
	err := ws.Iter(func(rec warehouse.Record) error {
		p, ok := SurrogatePointFromRecord(rec)
		if !ok {
			skipped++
			return nil
		}
		pts = append(pts, p)
		return nil
	})
	if err != nil {
		return nil, skipped, err
	}
	m.Fit(pts)
	return m, skipped, nil
}

// surrogateFeed adapts a surrogate model to the warehouse's Hook: every
// record landing in the store becomes an incremental training point, every
// eviction/deletion a tombstone. This is how the fast tier's coverage
// grows under load — a low-confidence estimate falls through to real
// simulation, the result lands in the warehouse, and the very next
// identical estimate is servable exactly.
type surrogateFeed struct {
	m *surrogate.Model
}

func (f surrogateFeed) RecordPut(fp runcache.Fingerprint, feat runcache.Features, blob []byte) {
	p, ok := SurrogatePointFromRecord(warehouse.Record{Fingerprint: fp, Features: feat, Blob: blob})
	if !ok {
		return
	}
	f.m.Insert(p)
}

func (f surrogateFeed) RecordRemove(fp runcache.Fingerprint) {
	f.m.Remove(fp)
}

// AttachSurrogate installs m as ws's live-set hook so the model tracks the
// store from here on. Call it after NewStoreSurrogate — training reads the
// store without the hook, then the hook covers everything after.
func AttachSurrogate(ws *warehouse.Store, m *surrogate.Model) {
	ws.SetHook(surrogateFeed{m: m})
}
