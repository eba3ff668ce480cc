package bpred

// ITP is a small history-hashed indirect target predictor (ITTAGE-lite): a
// direct-mapped tagged table of last targets indexed by PC xor a slice of
// global path/direction history, with 2-bit confidence hysteresis. The BTB's
// recorded target acts as the fallback when the ITP misses.
type ITP struct {
	entries []itpEntry
	mask    uint32

	hits, lookups uint64
}

type itpEntry struct {
	tag    uint32
	target uint64
	conf   int8
}

// NewITP builds a 2K-entry predictor.
func NewITP() *ITP {
	const n = 2048
	return &ITP{entries: make([]itpEntry, n), mask: n - 1}
}

// hash indexes and tags the table by pc and the most recent 32 direction
// bits of hist (bit 0 newest).
func (p *ITP) hash(pc, hist uint64) (idx, tag uint32) {
	h := uint32(hist)
	v := uint32(pc>>1) ^ h ^ (h << 7)
	idx = v & p.mask
	tag = uint32(pc>>1) ^ (h >> 3)
	tag &= 0xffff
	return idx, tag
}

// Predict returns the predicted target for the indirect branch at pc under
// the most recent history bits hist, or ok=false when no confident entry
// exists.
func (p *ITP) Predict(pc, hist uint64) (target uint64, ok bool) {
	p.lookups++
	idx, tag := p.hash(pc, hist)
	e := &p.entries[idx]
	if e.tag == tag && e.conf >= 0 {
		p.hits++
		return e.target, true
	}
	return 0, false
}

// Update trains the predictor with the resolved target under history hist.
func (p *ITP) Update(pc, hist, target uint64) {
	idx, tag := p.hash(pc, hist)
	e := &p.entries[idx]
	if e.tag == tag {
		if e.target == target {
			if e.conf < 1 {
				e.conf++
			}
		} else {
			if e.conf > -2 {
				e.conf--
			} else {
				e.target = target
				e.conf = 0
			}
		}
		return
	}
	// Tag miss: steal the entry when its confidence is exhausted.
	if e.conf > -2 {
		e.conf--
		return
	}
	*e = itpEntry{tag: tag, target: target, conf: 0}
}
