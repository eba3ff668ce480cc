package bpred

import (
	"testing"
	"testing/quick"

	"uopsim/internal/isa"
	"uopsim/internal/rng"
)

// foldReference recomputes a folded register from its definition, the slow
// way: the XOR over i < origLen of bit i (raw[0] = most recent) shifted to
// position i mod compLen.
func foldReference(raw []uint32, origLen, compLen int) uint32 {
	var comp uint32
	for i := 0; i < origLen && i < len(raw); i++ {
		comp ^= raw[i] << uint(i%compLen)
	}
	return comp
}

func TestFoldedHistoryMatchesReference(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		h := NewHistory()
		var raw []uint32 // raw[0] = most recent
		for i := 0; i < 300; i++ {
			b := uint32(r.Intn(2))
			raw = append([]uint32{b}, raw...)
			h.Shift(b == 1)
		}
		for k := range h.fold {
			if h.fold[k] != foldReference(raw, int(foldGeoms[k].len), int(foldGeoms[k].width)) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestRefoldMatchesIncremental is the property Redirect rests on: after
// every shift of a random sequence, folding the raw window from scratch
// reproduces every incrementally maintained register (index and both tag
// registers of every table).
func TestRefoldMatchesIncremental(t *testing.T) {
	r := rng.New(11)
	h := NewHistory()
	var fresh History
	for i := 0; i < 5000; i++ {
		h.Shift(r.Intn(2) == 1)
		fresh.set(&h.bits)
		if fresh.fold != h.fold {
			for k := range h.fold {
				if fresh.fold[k] != h.fold[k] {
					t.Fatalf("shift %d: register %d (len %d, width %d) refolds to %#x, incremental %#x",
						i, k, foldGeoms[k].len, foldGeoms[k].width, fresh.fold[k], h.fold[k])
				}
			}
		}
	}
}

func TestHistoryBitWindow(t *testing.T) {
	h := NewHistory()
	h.Shift(true)
	h.Shift(false)
	h.Shift(true) // most recent
	if w := &h.bits; w.bit(0) != 1 || w.bit(1) != 0 || w.bit(2) != 1 {
		t.Errorf("bits = %d%d%d, want 101", w.bit(0), w.bit(1), w.bit(2))
	}
	// The window carries across word boundaries up to the longest history.
	var w window
	w.shift(true)
	for i := 0; i < histLens[numTables-1]-1; i++ {
		w.shift(false)
	}
	if w.bit(histLens[numTables-1]-1) != 1 {
		t.Error("oldest bit of the longest history lost across words")
	}
}

func TestHistoryCopyRestore(t *testing.T) {
	a := NewHistory()
	for i := 0; i < 50; i++ {
		a.Shift(i%3 == 0)
	}
	b := *a
	a.Shift(true) // diverge
	if b.bits == a.bits && b.fold[foldIdx+3] == a.fold[foldIdx+3] {
		t.Error("copy did not snapshot independent state")
	}
	*a = b
	if a.fold != b.fold || a.bits != b.bits {
		t.Fatal("restore incomplete")
	}
}

func TestBTBInsertLookup(t *testing.T) {
	btb := NewBTB()
	pc := uint64(0x1010)
	btb.Insert(pc, isa.BranchCond, 0x2000, 4)
	br, pen, ok := btb.Lookup(0x1000, 0)
	if !ok || pen != 0 {
		t.Fatalf("lookup failed (ok=%v pen=%d)", ok, pen)
	}
	if br.PC(0x1000) != pc || br.Target != 0x2000 || br.Kind != isa.BranchCond {
		t.Errorf("wrong branch: %+v", br)
	}
	if br.FallThrough(0x1000) != pc+4 {
		t.Errorf("fallthrough = %#x", br.FallThrough(0x1000))
	}
}

func TestBTBMinOffsetAndOrdering(t *testing.T) {
	btb := NewBTB()
	btb.Insert(0x1030, isa.BranchJump, 0x9000, 5)
	btb.Insert(0x1008, isa.BranchCond, 0x8000, 2)
	br, _, ok := btb.Lookup(0x1000, 0)
	if !ok || br.Offset != 0x08 {
		t.Fatalf("first branch should be the earliest (offset %#x)", br.Offset)
	}
	br, _, ok = btb.Lookup(0x1000, 0x09)
	if !ok || br.Offset != 0x30 {
		t.Fatalf("minOffset skip failed (offset %#x)", br.Offset)
	}
	if _, _, ok = btb.Lookup(0x1000, 0x31); ok {
		t.Fatal("no branch past 0x31")
	}
}

func TestBTBUpdateInPlace(t *testing.T) {
	btb := NewBTB()
	btb.Insert(0x1010, isa.BranchIndirect, 0x2000, 3)
	btb.Insert(0x1010, isa.BranchIndirect, 0x3000, 3) // retarget
	br, _, _ := btb.Lookup(0x1000, 0)
	if br.Target != 0x3000 {
		t.Errorf("target not updated: %#x", br.Target)
	}
}

func TestBTBDenseLineSpillsAcrossWays(t *testing.T) {
	btb := NewBTB()
	// Four branches in one line: two entries' worth.
	for i := 0; i < 4; i++ {
		btb.Insert(uint64(0x1000+i*16), isa.BranchCond, 0x2000, 2)
	}
	for i := 0; i < 4; i++ {
		br, _, ok := btb.Lookup(0x1000, i*16)
		if !ok || int(br.Offset) != i*16 {
			t.Fatalf("branch %d not found", i)
		}
	}
}

func TestBTBL2Backfill(t *testing.T) {
	btb := NewBTB()
	btb.Insert(0x1010, isa.BranchCond, 0x2000, 4)
	// Evict from L1 by inserting many conflicting lines (L1: 256 sets;
	// stride 256*64).
	for i := 1; i <= 8; i++ {
		btb.Insert(uint64(0x1010+i*256*64), isa.BranchCond, 0x2000, 4)
	}
	_, pen, ok := btb.Lookup(0x1000, 0)
	if !ok {
		t.Fatal("L2 should still hold the branch")
	}
	if pen != btb.L2HitPenalty {
		t.Errorf("penalty = %d, want %d", pen, btb.L2HitPenalty)
	}
	// And it is now back in L1: a second lookup is penalty-free.
	if _, pen2, _ := btb.Lookup(0x1000, 0); pen2 != 0 {
		t.Errorf("backfill missing: penalty %d", pen2)
	}
}

func TestRASPushPop(t *testing.T) {
	r := NewRAS()
	r.SpecPush(100)
	r.SpecPush(200)
	if v, ok := r.SpecPop(); !ok || v != 200 {
		t.Fatal("pop order wrong")
	}
	if v, ok := r.SpecPop(); !ok || v != 100 {
		t.Fatal("second pop wrong")
	}
	if _, ok := r.SpecPop(); ok {
		t.Fatal("empty pop should fail")
	}
}

func TestRASRepair(t *testing.T) {
	r := NewRAS()
	r.ArchPush(1)
	r.ArchPush(2)
	r.SpecPush(1)
	r.SpecPush(2)
	// Wrong-path speculation corrupts the spec stack.
	r.SpecPop()
	r.SpecPush(99)
	r.SpecPush(98)
	r.Repair()
	if v, ok := r.SpecPop(); !ok || v != 2 {
		t.Fatalf("repair failed: got %v", v)
	}
	if r.SpecDepth() != 1 {
		t.Errorf("depth = %d", r.SpecDepth())
	}
}

func TestRASOverflowWrap(t *testing.T) {
	r := NewRAS()
	for i := 0; i < 100; i++ {
		r.SpecPush(uint64(i))
	}
	// The stack holds the most recent 64 entries.
	for i := 99; i >= 36; i-- {
		v, ok := r.SpecPop()
		if !ok || v != uint64(i) {
			t.Fatalf("pop %d = (%v,%v)", i, v, ok)
		}
	}
	if _, ok := r.SpecPop(); ok {
		t.Fatal("oldest entries should have been overwritten")
	}
}

func TestITPLearnsStableTarget(t *testing.T) {
	itp := NewITP()
	var h uint64
	pc := uint64(0x5000)
	for i := 0; i < 4; i++ {
		itp.Update(pc, h, 0x9000)
	}
	if tgt, ok := itp.Predict(pc, h); !ok || tgt != 0x9000 {
		t.Fatalf("stable target not learned: (%#x, %v)", tgt, ok)
	}
}

func TestITPRetargetsAfterConfidenceDrains(t *testing.T) {
	itp := NewITP()
	var h uint64
	pc := uint64(0x5000)
	for i := 0; i < 4; i++ {
		itp.Update(pc, h, 0x9000)
	}
	for i := 0; i < 8; i++ {
		itp.Update(pc, h, 0xA000)
	}
	if tgt, ok := itp.Predict(pc, h); !ok || tgt != 0xA000 {
		t.Fatalf("retarget failed: (%#x, %v)", tgt, ok)
	}
}

func TestITPHistoryContext(t *testing.T) {
	// The same indirect branch with different histories can hold different
	// targets (the point of history hashing).
	itp := NewITP()
	var h1, h2 window
	for i := 0; i < 40; i++ {
		h2.shift(true)
	}
	pc := uint64(0x5000)
	for i := 0; i < 4; i++ {
		itp.Update(pc, h1[0], 0x9000)
		itp.Update(pc, h2[0], 0xA000)
	}
	t1, ok1 := itp.Predict(pc, h1[0])
	t2, ok2 := itp.Predict(pc, h2[0])
	if !ok1 || !ok2 || t1 != 0x9000 || t2 != 0xA000 {
		t.Errorf("context targets: (%#x,%v) (%#x,%v)", t1, ok1, t2, ok2)
	}
}

// TestPredictorRedirectRestoresSpec: after wrong-path shifts, Redirect
// leaves the speculative history equal, window and folds, to a fresh one
// shifted with the correct-path outcomes only.
func TestPredictorRedirectRestoresSpec(t *testing.T) {
	p := New()
	want := NewHistory()
	r := rng.New(3)
	for round := 0; round < 50; round++ {
		// Correct path: both views advance.
		for i := 0; i < 1+r.Intn(40); i++ {
			taken := r.Intn(2) == 1
			p.SpecShift(taken)
			p.ArchShift(taken)
			want.Shift(taken)
		}
		// Wrong-path speculation diverges the spec view only.
		for i := 0; i < 1+r.Intn(20); i++ {
			p.SpecShift(r.Intn(2) == 1)
		}
		p.Redirect()
		if p.spec != *want {
			t.Fatalf("round %d: redirect left spec %+v, want %+v", round, p.spec, *want)
		}
	}
}

func TestPredictTargetKinds(t *testing.T) {
	p := New()
	// Direct branch: BTB target is authoritative.
	if tgt, ok := p.PredictTarget(0x10, BTBBranch{Valid: true, Kind: isa.BranchJump, Target: 0x99}); !ok || tgt != 0x99 {
		t.Error("direct target wrong")
	}
	// Return: spec RAS.
	p.SpecCall(0x1234)
	if tgt, ok := p.PredictTarget(0x20, BTBBranch{Valid: true, Kind: isa.BranchRet}); !ok || tgt != 0x1234 {
		t.Error("RAS target wrong")
	}
	// Indirect with no ITP entry falls back to the BTB's last target.
	if tgt, ok := p.PredictTarget(0x30, BTBBranch{Valid: true, Kind: isa.BranchIndirect, Target: 0x555}); !ok || tgt != 0x555 {
		t.Error("indirect fallback wrong")
	}
}
