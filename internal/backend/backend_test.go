package backend

import (
	"testing"

	"uopsim/internal/isa"
	"uopsim/internal/mem"
	"uopsim/internal/uopq"
)

func newBE() *Backend {
	return New(DefaultConfig(), mem.New(mem.DefaultConfig()))
}

func aluInst(dest, src uint8) *isa.Inst {
	return &isa.Inst{Class: isa.ClassALU, NumUops: 1, Dest: dest, Src1: src, Src2: isa.RegNone}
}

func uopOf(in *isa.Inst) *uopq.Uop {
	return &uopq.Uop{Inst: in, UopIdx: 0, LastOfInst: true}
}

func TestDispatchAndCommit(t *testing.T) {
	b := newBE()
	in := aluInst(1, isa.RegNone)
	done := b.Dispatch(0, uopOf(in))
	if done < 2 { // issue >= cycle+1, latency >= 1
		t.Errorf("done = %d", done)
	}
	if b.Commit(done-1) != 0 {
		t.Error("committed before completion")
	}
	if b.Commit(done) != 1 {
		t.Error("did not commit at completion")
	}
	if b.RetiredUops() != 1 {
		t.Errorf("retired = %d", b.RetiredUops())
	}
}

func TestRAWDependencyDelays(t *testing.T) {
	b := newBE()
	ld := &isa.Inst{Class: isa.ClassDiv, NumUops: 1, Dest: 3, Src1: isa.RegNone, Src2: isa.RegNone}
	doneProducer := b.Dispatch(0, uopOf(ld))
	consumer := aluInst(4, 3)
	doneConsumer := b.Dispatch(1, uopOf(consumer))
	if doneConsumer <= doneProducer {
		t.Errorf("consumer (%d) should finish after its producer (%d)", doneConsumer, doneProducer)
	}
	indep := aluInst(5, isa.RegNone)
	doneIndep := b.Dispatch(2, uopOf(indep))
	if doneIndep >= doneConsumer {
		t.Error("independent work should not wait on the divide chain")
	}
}

func TestFlagsDependencyForBranches(t *testing.T) {
	b := newBE()
	// A slow flag producer (divide writes no flags; use Mul which does).
	mul := &isa.Inst{Class: isa.ClassMul, NumUops: 1, Dest: 1, Src1: isa.RegNone, Src2: isa.RegNone}
	doneMul := b.Dispatch(0, uopOf(mul))
	br := &isa.Inst{Class: isa.ClassBranch, Branch: isa.BranchCond, NumUops: 1, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	doneBr := b.Dispatch(1, uopOf(br))
	if doneBr <= doneMul {
		t.Errorf("conditional branch (%d) must wait for the flags producer (%d)", doneBr, doneMul)
	}
}

func TestInOrderCommit(t *testing.T) {
	b := newBE()
	slow := &isa.Inst{Class: isa.ClassDiv, NumUops: 1, Dest: 1, Src1: isa.RegNone, Src2: isa.RegNone}
	fast := aluInst(2, isa.RegNone)
	doneSlow := b.Dispatch(0, uopOf(slow))
	b.Dispatch(0, uopOf(fast))
	// The fast uop completes early but must not retire past the slow head.
	if b.Commit(doneSlow-1) != 0 {
		t.Error("younger uop retired past incomplete head")
	}
	if b.Commit(doneSlow) != 2 {
		t.Error("both should retire once the head completes")
	}
}

func TestROBCapacity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROBSize = 4
	cfg.IQSize = 100
	b := New(cfg, mem.New(mem.DefaultConfig()))
	in := aluInst(1, isa.RegNone)
	for i := 0; i < 4; i++ {
		if !b.CanDispatch() {
			t.Fatalf("should accept %d", i)
		}
		b.Dispatch(0, uopOf(in))
	}
	if b.CanDispatch() {
		t.Fatal("ROB full: dispatch must stall")
	}
	b.Tick(10)
	b.Commit(10)
	if !b.CanDispatch() {
		t.Fatal("retirement should free ROB slots")
	}
}

func TestIQBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROBSize = 256
	cfg.IQSize = 2
	b := New(cfg, mem.New(mem.DefaultConfig()))
	slow := &isa.Inst{Class: isa.ClassDiv, NumUops: 1, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	b.Dispatch(0, uopOf(slow))
	b.Dispatch(0, uopOf(slow))
	if b.CanDispatch() {
		t.Fatal("issue window full: dispatch must stall")
	}
	// Advance past completion; Tick drains the in-flight count.
	for c := int64(1); c < 100; c++ {
		b.Tick(c)
	}
	if !b.CanDispatch() {
		t.Fatal("completions should drain the issue window")
	}
}

func TestPortContention(t *testing.T) {
	b := newBE()
	// Saturate the ALU ports at one cycle: more uops than ports must spill
	// to later issue slots, visible as later completion for the overflow.
	in := aluInst(1, isa.RegNone)
	var dones []int64
	for i := 0; i < 12; i++ {
		dones = append(dones, b.Dispatch(0, uopOf(in)))
	}
	if dones[len(dones)-1] <= dones[0] {
		t.Error("port contention should push later uops out in time")
	}
}

func TestRetireWidth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetireWidth = 2
	b := New(cfg, mem.New(mem.DefaultConfig()))
	in := aluInst(1, isa.RegNone)
	for i := 0; i < 5; i++ {
		b.Dispatch(0, uopOf(in))
	}
	if got := b.Commit(100); got != 2 {
		t.Errorf("commit width = %d, want 2", got)
	}
}

func TestDrained(t *testing.T) {
	b := newBE()
	if !b.Drained() {
		t.Fatal("fresh backend should be drained")
	}
	done := b.Dispatch(0, uopOf(aluInst(1, isa.RegNone)))
	if b.Drained() {
		t.Fatal("in-flight uop should block drained")
	}
	b.Commit(done)
	if !b.Drained() {
		t.Fatal("commit should drain")
	}
}
