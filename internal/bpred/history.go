// Package bpred implements the front-end branch predictors of Table I: a
// TAGE direction predictor (Seznec [49]), a two-level BTB with two branches
// per entry, a return address stack, and a history-hashed indirect target
// predictor.
//
// The predictor operates decoupled from fetch: predictions use speculative
// global history, tables are trained with correct-path outcomes, and on a
// misprediction redirect the speculative state is rebuilt from the
// architectural (correct-path) history window.
package bpred

// histWords sizes the raw history window: three words cover the longest
// TAGE history length (130 bits).
const histWords = 3

// window is a raw global branch-direction history: bit 0 of word 0 is the
// most recent outcome. The architectural history is only this window.
type window [histWords]uint64

// shift records a new outcome as the most recent bit.
func (w *window) shift(taken bool) {
	var nb uint64
	if taken {
		nb = 1
	}
	w[2] = w[2]<<1 | w[1]>>63
	w[1] = w[1]<<1 | w[0]>>63
	w[0] = w[0]<<1 | nb
}

// bit returns history bit i (0 = most recent).
func (w *window) bit(i int) uint32 {
	return uint32(w[i>>6]>>(uint(i)&63)) & 1
}

// chunk returns the n <= 32 history bits starting at bit i.
func (w *window) chunk(i, n int) uint32 {
	v := w[i>>6] >> (uint(i) & 63)
	if off := i & 63; off+n > 64 {
		v |= w[(i>>6)+1] << (64 - uint(off))
	}
	return uint32(v) & (1<<uint(n) - 1)
}

// Folded registers: each tagged table t keeps three circular-shift-register
// compressions of its histLens[t] most recent bits, one for the index and
// two for the tag, laid out as fold[foldIdx+t], fold[foldTag1+t] and
// fold[foldTag2+t]. A register of width c over L bits holds the XOR over
// i < L of h_i << (i mod c), which is what refold computes directly and
// what Shift maintains incrementally.
const (
	foldIdx  = 0
	foldTag1 = numTables
	foldTag2 = 2 * numTables
	numFolds = 3 * numTables
)

// foldGeom is one folded register's geometry: width c, the window length
// L it compresses, the position L mod c its outgoing bit leaves from, and
// the c-bit mask.
type foldGeom struct {
	len, width, wrap uint8
	mask             uint32
}

// step advances folded register c by one history shift: nb enters at bit
// 0, ob (the bit leaving the window) is cancelled at bit wrap, and the bit
// pushed past the width wraps round to bit 0. The shift counts are masked
// to 31 so the compiler emits bare shifts.
func (g *foldGeom) step(c, nb, ob uint32) uint32 {
	c = c<<1 | nb
	c ^= ob << (g.wrap & 31)
	c ^= c >> (g.width & 31)
	return c & g.mask
}

// foldGeoms holds every register's geometry, computed once.
var foldGeoms [numFolds]foldGeom

func init() {
	for t := 0; t < numTables; t++ {
		L := histLens[t]
		for j, c := range [3]int{logEntries, tagBits[t], tagBits[t] - 1} {
			c = min(max(c, 1), L)
			foldGeoms[j*numTables+t] = foldGeom{len: uint8(L), width: uint8(c), wrap: uint8(L % c), mask: 1<<uint(c) - 1}
		}
	}
}

// History is the speculative global history: the raw bit window plus the
// folded registers each tagged table uses for indexing and tagging. It is
// a value type: snapshotting is a plain struct copy.
type History struct {
	bits window
	fold [numFolds]uint32
}

// NewHistory builds an empty history.
func NewHistory() *History { return &History{} }

// Shift records a new branch outcome as the most recent history bit. The
// outgoing bit of each table is read once and applied to its three
// registers.
//
//uopvet:hotpath
func (h *History) Shift(taken bool) {
	var nb uint32
	if taken {
		nb = 1
	}
	for t := 0; t < numTables; t++ {
		ob := h.bits.bit(histLens[t] - 1)
		h.fold[foldIdx+t] = foldGeoms[foldIdx+t].step(h.fold[foldIdx+t], nb, ob)
		h.fold[foldTag1+t] = foldGeoms[foldTag1+t].step(h.fold[foldTag1+t], nb, ob)
		h.fold[foldTag2+t] = foldGeoms[foldTag2+t].step(h.fold[foldTag2+t], nb, ob)
	}
	h.bits.shift(taken)
}

// set replaces this history with window w, rebuilding every folded
// register from it (redirect repair).
func (h *History) set(w *window) {
	h.bits = *w
	for k := range h.fold {
		h.fold[k] = refold(w, int(foldGeoms[k].len), int(foldGeoms[k].width))
	}
}

// refold compresses the L most recent bits of w into c bits: the XOR of
// its successive c-bit chunks, the last one short when c does not divide L.
func refold(w *window, L, c int) uint32 {
	var v uint32
	for i := 0; i < L; i += c {
		v ^= w.chunk(i, min(c, L-i))
	}
	return v
}
