package workload

import (
	"uopsim/internal/isa"
	"uopsim/internal/program"
	"uopsim/internal/rng"
	"uopsim/internal/trace"
)

// behaviorIndex re-keys the Behaviors maps densely so the walker's
// per-instruction path does no map lookups. ord maps each static
// instruction ID to a 1-based ordinal into the list of its kind (0 means
// the instruction has no behaviour); the kind is the one the walker asks
// for, fixed by the instruction's class. Ordinals follow instruction ID
// order, one per ID. It is built once per workload build (BuildAt) and
// shared by every walker.
type behaviorIndex struct {
	ord  []int32
	cond []*CondBehavior
	ind  []*IndirectBehavior
	mem  []*MemBehavior
}

func newBehaviorIndex(prog *program.Program, beh *Behaviors) *behaviorIndex {
	idx := &behaviorIndex{
		ord:  make([]int32, prog.NumInsts()),
		cond: make([]*CondBehavior, 0, len(beh.Cond)),
		ind:  make([]*IndirectBehavior, 0, len(beh.Indirect)),
		mem:  make([]*MemBehavior, 0, len(beh.Mem)),
	}
	for i := range prog.Insts {
		in := &prog.Insts[i]
		switch {
		case in.Branch == isa.BranchCond:
			if cb := beh.Cond[in.ID]; cb != nil {
				idx.cond = append(idx.cond, cb)
				idx.ord[in.ID] = int32(len(idx.cond))
			}
		case in.Branch == isa.BranchIndirect || in.Branch == isa.BranchIndirectCall:
			if ib := beh.Indirect[in.ID]; ib != nil {
				idx.ind = append(idx.ind, ib)
				idx.ord[in.ID] = int32(len(idx.ind))
			}
		case isMem(in.Class):
			if mb := beh.Mem[in.ID]; mb != nil {
				idx.mem = append(idx.mem, mb)
				idx.ord[in.ID] = int32(len(idx.mem))
			}
		}
	}
	return idx
}

// isMem reports whether instructions of class c carry a memory address.
func isMem(c isa.Class) bool {
	return c == isa.ClassLoad || c == isa.ClassStore || c == isa.ClassLoadOp
}

// Walker executes a Workload architecturally, producing the oracle dynamic
// instruction stream. It is deterministic for a given workload seed.
//
// All walker state is dense, one slot per behaviour of its kind, reached
// through the shared index's per-instruction ordinal: the walker runs once
// per fetched instruction, and map-backed state dominated the simulator's
// profile before the conversion. Only branches and memory instructions
// carry state, so sizing it per behaviour rather than per static
// instruction keeps a fresh walker small.
type Walker struct {
	prog *program.Program
	idx  *behaviorIndex
	rnd  *rng.Source

	cur   uint32   // current static instruction ID
	stack []uint32 // call stack of resume instruction IDs

	trips    []int32       // live loop back-edge counters per cond behaviour (0 = not live)
	patPos   []uint32      // pattern positions per cond behaviour
	indRun   []indirectRun // target run state per indirect behaviour
	memPos   []uint64      // stream offsets per memory behaviour
	executed uint64
}

type indirectRun struct {
	remaining int32
	target    uint64
}

// NewWalker positions a walker at the workload's dispatcher.
func NewWalker(w *Workload) *Walker {
	entryBlock := &w.Program.Blocks[w.Behaviors.DispatchBlock]
	idx := w.idx
	if idx == nil {
		// Hand-built or replay workloads that bypassed BuildAt.
		idx = newBehaviorIndex(w.Program, w.Behaviors)
	}
	return &Walker{
		prog:   w.Program,
		idx:    idx,
		rnd:    rng.New(w.Profile.Seed).Derive(5),
		cur:    uint32(entryBlock.First),
		trips:  make([]int32, len(idx.cond)),
		patPos: make([]uint32, len(idx.cond)),
		indRun: make([]indirectRun, len(idx.ind)),
		memPos: make([]uint64, len(idx.mem)),
	}
}

// Executed returns the number of instructions produced so far.
func (w *Walker) Executed() uint64 { return w.executed }

// Depth returns the current call-stack depth (diagnostics/tests).
func (w *Walker) Depth() int { return len(w.stack) }

// Next implements trace.Stream; the workload stream is unbounded so ok is
// always true.
func (w *Walker) Next() (trace.Rec, bool) {
	in := w.prog.Inst(w.cur)
	rec := trace.Rec{InstID: w.cur}
	w.executed++

	switch {
	case in.IsBranch():
		w.stepBranch(in, &rec)
	default:
		rec.Next = in.End()
		if w.prog.At(rec.Next) == nil {
			// Fell off the end of the code region (cannot happen with the
			// synthesizer's layout, but keep replayed traces safe).
			rec.Next = w.prog.Entry
		}
		if isMem(in.Class) {
			rec.MemAddr = w.memAddr(in)
		}
	}

	next := w.prog.At(rec.Next)
	if next == nil {
		rec.Next = w.prog.Entry
		next = w.prog.At(rec.Next)
	}
	w.cur = next.ID
	return rec, true
}

func (w *Walker) stepBranch(in *isa.Inst, rec *trace.Rec) {
	fall := in.End()
	switch in.Branch {
	case isa.BranchCond:
		taken := w.condOutcome(in)
		rec.Taken = taken
		if taken {
			rec.Next = in.Target
		} else {
			rec.Next = fall
		}
	case isa.BranchJump:
		rec.Taken = true
		rec.Next = in.Target
	case isa.BranchCall:
		rec.Taken = true
		rec.Next = in.Target
		w.push(in.ID + 1)
	case isa.BranchIndirectCall:
		rec.Taken = true
		rec.Next = w.indirectTarget(in)
		w.push(in.ID + 1)
	case isa.BranchIndirect:
		rec.Taken = true
		rec.Next = w.indirectTarget(in)
	case isa.BranchRet:
		rec.Taken = true
		if len(w.stack) > 0 {
			resume := w.stack[len(w.stack)-1]
			w.stack = w.stack[:len(w.stack)-1]
			rec.Next = w.prog.Inst(resume).Addr
		} else {
			rec.Next = w.prog.Entry
		}
	default:
		rec.Taken = true
		rec.Next = fall
	}
}

func (w *Walker) push(resumeID uint32) {
	if int(resumeID) >= w.prog.NumInsts() {
		resumeID = w.prog.Inst(0).ID
	}
	w.stack = append(w.stack, resumeID)
}

func (w *Walker) condOutcome(in *isa.Inst) bool {
	o := w.idx.ord[in.ID] - 1
	if o < 0 {
		// Unannotated conditional (replayed or hand-built programs):
		// fall through.
		return false
	}
	cb := w.idx.cond[o]
	switch cb.Kind {
	case BehChaotic, BehBiased:
		return w.rnd.Bool(cb.P)
	case BehPattern:
		pos := w.patPos[o]
		w.patPos[o] = pos + 1
		return cb.Pattern>>(pos%uint32(cb.PatLen))&1 == 1
	case BehLoop:
		remaining := int(w.trips[o])
		if remaining == 0 { // not live: entering the loop
			remaining = w.sampleTrips(cb)
		}
		remaining--
		if remaining > 0 {
			w.trips[o] = int32(remaining)
			return true // loop back
		}
		w.trips[o] = 0
		return false // exit
	default:
		return false
	}
}

func (w *Walker) sampleTrips(cb *CondBehavior) int {
	if cb.FixedTrip > 0 {
		return cb.FixedTrip
	}
	return w.rnd.Geometric(cb.TripMean, int(8*cb.TripMean)+1)
}

func (w *Walker) indirectTarget(in *isa.Inst) uint64 {
	o := w.idx.ord[in.ID] - 1
	if o < 0 || len(w.idx.ind[o].TargetBlocks) == 0 {
		return w.prog.Entry
	}
	ib := w.idx.ind[o]
	run := &w.indRun[o]
	if run.remaining > 0 {
		run.remaining--
		return run.target
	}
	idx := w.rnd.Choose(ib.Weights)
	blk := &w.prog.Blocks[ib.TargetBlocks[idx]]
	run.target = w.prog.Inst(uint32(blk.First)).Addr
	if ib.RunLen > 1 {
		run.remaining = int32(w.rnd.Geometric(ib.RunLen, int(4*ib.RunLen)+1) - 1)
	}
	return run.target
}

func (w *Walker) memAddr(in *isa.Inst) uint64 {
	o := w.idx.ord[in.ID] - 1
	if o < 0 {
		return 0
	}
	mb := w.idx.mem[o]
	if mb.Stride == 0 {
		return mb.Base + w.rnd.Uint64()%mb.Size
	}
	off := w.memPos[o]
	w.memPos[o] = off + uint64(mb.Stride)
	return mb.Base + off%mb.Size
}
