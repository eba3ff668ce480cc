package bpred

import (
	"uopsim/internal/isa"
	"uopsim/internal/stats"
)

// Predictor bundles the direction predictor, BTB, RAS and indirect target
// predictor behind the two views the pipeline needs: a speculative view used
// while fetching (possibly down the wrong path) and an architectural view
// trained in correct-path program order.
type Predictor struct {
	Tage *Tage
	BTB  *BTB
	RAS  *RAS
	ITP  *ITP

	// spec is the speculative history fetch predicts with; arch is the
	// correct-path window it is rebuilt from at every redirect.
	spec History
	arch window

	condLookups stats.Counter
	condMiss    stats.Counter
	targetMiss  stats.Counter

	// Shadow is an optional reference predictor trained with immediate
	// predict+update on the consumed branch sequence; it isolates timing
	// effects from table effects in accuracy debugging.
	Shadow     *Tage
	shadowMiss stats.Counter
}

// RegisterMetrics publishes the predictor's counters under sc (expected
// mount point: "bpu").
func (p *Predictor) RegisterMetrics(sc stats.Scope) {
	tage := sc.Scope("tage")
	tage.RegisterCounter("lookups", &p.condLookups)
	tage.RegisterCounter("mispredicts", &p.condMiss)
	tage.RegisterGauge("accuracy", p.CondAccuracy)
	sc.RegisterCounter("target.mispredicts", &p.targetMiss)
	sc.RegisterCounter("shadow.mispredicts", &p.shadowMiss)
}

// New builds a predictor with the default Table I geometry.
func New() *Predictor {
	return &Predictor{
		Tage: NewTage(),
		BTB:  NewBTB(),
		RAS:  NewRAS(),
		ITP:  NewITP(),
	}
}

// FindBranch consults the BTB for the first known branch in the 64B line at
// lineAddr at or after byte offset minOffset (speculative fetch side).
func (p *Predictor) FindBranch(lineAddr uint64, minOffset int) (BTBBranch, int, bool) {
	return p.BTB.Lookup(lineAddr, minOffset)
}

// PredictCond predicts the direction of the conditional branch at pc using
// speculative history, writing the prediction state into pred.
func (p *Predictor) PredictCond(pc uint64, pred *Pred) {
	p.Tage.Predict(pc, &p.spec, pred)
}

// PredictTarget predicts the target of the branch at pc given its BTB record
// (speculative fetch side). For returns it pops the speculative RAS; for
// indirect branches it consults the ITP with BTB fallback; for direct
// branches the BTB target is authoritative.
func (p *Predictor) PredictTarget(pc uint64, br BTBBranch) (uint64, bool) {
	switch br.Kind {
	case isa.BranchRet:
		if t, ok := p.RAS.SpecPop(); ok {
			return t, true
		}
		return br.Target, br.Target != 0
	case isa.BranchIndirect, isa.BranchIndirectCall:
		if t, ok := p.ITP.Predict(pc, p.spec.bits[0]); ok {
			return t, true
		}
		return br.Target, br.Target != 0
	default:
		return br.Target, true
	}
}

// SpecCall records a speculative call's return address on the RAS.
func (p *Predictor) SpecCall(returnAddr uint64) { p.RAS.SpecPush(returnAddr) }

// SpecShift advances speculative history with a (possibly wrong-path)
// branch outcome.
func (p *Predictor) SpecShift(taken bool) { p.spec.Shift(taken) }

// WarmCond performs the correct-path predict+update pair without touching
// the accuracy counters. The sampled-run fast-forward path trains through
// here: skipped branches keep the direction tables and usefulness state
// hot, but are not lookups and must not dilute the measured accuracy. It
// predicts with the speculative history, which must equal the
// architectural one: the warming path starts with Redirect and advances
// both histories together through WarmShift.
func (p *Predictor) WarmCond(pc uint64, taken bool) {
	var pred Pred
	p.Tage.Predict(pc, &p.spec, &pred)
	p.Tage.Update(&pred, taken)
}

// WarmShift advances both histories with a correct-path outcome on the
// fast-forward path, keeping them equal.
func (p *Predictor) WarmShift(taken bool) {
	p.spec.Shift(taken)
	p.arch.shift(taken)
}

// UpdateCond trains TAGE with the fetch-time prediction state (pred, as
// written by PredictCond) and the resolved outcome, in program order.
func (p *Predictor) UpdateCond(pc uint64, pred *Pred, taken bool) {
	p.Tage.Update(pred, taken)
	p.condLookups.Inc()
	if pred.Taken != taken {
		p.condMiss.Inc()
	}
	if p.Shadow != nil {
		// The shadow predictor indexes with the architectural window,
		// folded on demand: only accuracy experiments set it.
		var h History
		h.set(&p.arch)
		var sp Pred
		p.Shadow.Predict(pc, &h, &sp)
		p.Shadow.Update(&sp, taken)
		if sp.Taken != taken {
			p.shadowMiss.Inc()
		}
	}
}

// ShadowAccuracy returns the shadow predictor's accuracy.
func (p *Predictor) ShadowAccuracy() float64 {
	if p.condLookups.Value() == 0 {
		return 0
	}
	return 1 - float64(p.shadowMiss.Value())/float64(p.condLookups.Value())
}

// TrainTarget performs correct-path target training for a resolved branch.
func (p *Predictor) TrainTarget(pc uint64, kind isa.BranchKind, target uint64, length uint8) {
	p.BTB.Insert(pc, kind, target, length)
	if kind == isa.BranchIndirect || kind == isa.BranchIndirectCall {
		p.ITP.Update(pc, p.arch[0], target)
	}
}

// WarmTarget is TrainTarget for the fast-forward warming path; it takes the
// BTB's cheap already-recorded fast path (see BTB.WarmInsert).
func (p *Predictor) WarmTarget(pc uint64, kind isa.BranchKind, target uint64, length uint8) {
	p.BTB.WarmInsert(pc, kind, target, length)
	if kind == isa.BranchIndirect || kind == isa.BranchIndirectCall {
		p.ITP.Update(pc, p.arch[0], target)
	}
}

// ArchShift advances architectural history with a correct-path outcome.
func (p *Predictor) ArchShift(taken bool) { p.arch.shift(taken) }

// ArchCall/ArchRet maintain the architectural RAS in program order.
func (p *Predictor) ArchCall(returnAddr uint64) { p.RAS.ArchPush(returnAddr) }

// ArchRet records a correct-path return.
func (p *Predictor) ArchRet() { p.RAS.ArchPop() }

// NoteTargetMiss counts a correct-path target misprediction (statistics).
func (p *Predictor) NoteTargetMiss() { p.targetMiss.Inc() }

// Redirect restores all speculative state from the architectural state
// (misprediction or discovery redirect): the speculative history takes the
// architectural window and refolds its registers from it.
func (p *Predictor) Redirect() {
	p.spec.set(&p.arch)
	p.RAS.Repair()
}

// CondAccuracy returns direction-prediction accuracy over correct-path
// conditional branches.
func (p *Predictor) CondAccuracy() float64 {
	if p.condLookups.Value() == 0 {
		return 0
	}
	return 1 - float64(p.condMiss.Value())/float64(p.condLookups.Value())
}

// Mispredicts returns (direction mispredicts, target mispredicts).
func (p *Predictor) Mispredicts() (uint64, uint64) {
	return p.condMiss.Value(), p.targetMiss.Value()
}
