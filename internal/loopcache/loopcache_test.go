package loopcache

import "testing"

func TestTrainingThreshold(t *testing.T) {
	lc := New(Config{MaxUops: 16, TrainThreshold: 3, Enabled: true})
	for i := 1; i <= 2; i++ {
		if lc.ObserveBackwardTaken(0x100, 0x80) {
			t.Fatalf("armed after %d observations (threshold 3)", i)
		}
	}
	if !lc.ObserveBackwardTaken(0x100, 0x80) {
		t.Fatal("should arm at the threshold")
	}
	if lc.ObserveBackwardTaken(0x100, 0x80) {
		t.Fatal("should arm exactly once")
	}
}

func TestTrainingResetOnOtherControl(t *testing.T) {
	lc := New(Config{MaxUops: 16, TrainThreshold: 2, Enabled: true})
	lc.ObserveBackwardTaken(0x100, 0x80)
	lc.ObserveOther()
	if lc.ObserveBackwardTaken(0x100, 0x80) {
		t.Fatal("interleaved control flow must reset training")
	}
}

func TestInstallAndLookup(t *testing.T) {
	lc := New(DefaultConfig())
	l := Loop{Start: 0x80, BranchPC: 0x100, InstIDs: []uint32{1, 2, 3}, NumUops: 5}
	if !lc.Install(l) {
		t.Fatal("install failed")
	}
	got, ok := lc.Lookup(0x80)
	if !ok || got.NumUops != 5 {
		t.Fatal("lookup failed")
	}
	if _, ok := lc.Lookup(0x84); ok {
		t.Fatal("lookup at non-head must miss")
	}
}

func TestInstallRejectsOversized(t *testing.T) {
	lc := New(Config{MaxUops: 4, TrainThreshold: 1, Enabled: true})
	if lc.Install(Loop{Start: 1, BranchPC: 2, InstIDs: []uint32{1}, NumUops: 5}) {
		t.Fatal("oversized loop accepted")
	}
	if lc.Install(Loop{Start: 1, BranchPC: 2, NumUops: 2}) {
		t.Fatal("empty body accepted")
	}
}

func TestSingleLoopResidency(t *testing.T) {
	lc := New(DefaultConfig())
	lc.Install(Loop{Start: 0x80, BranchPC: 0x100, InstIDs: []uint32{1}, NumUops: 2})
	lc.Install(Loop{Start: 0x200, BranchPC: 0x280, InstIDs: []uint32{2}, NumUops: 2})
	if _, ok := lc.Lookup(0x80); ok {
		t.Fatal("old loop should have been displaced")
	}
	if _, ok := lc.Lookup(0x200); !ok {
		t.Fatal("new loop missing")
	}
}

func TestInvalidateRange(t *testing.T) {
	lc := New(DefaultConfig())
	lc.Install(Loop{Start: 0x80, BranchPC: 0x100, InstIDs: []uint32{1}, NumUops: 2})
	lc.InvalidateRange(0x200, 0x300) // disjoint: keep
	if _, ok := lc.Lookup(0x80); !ok {
		t.Fatal("disjoint invalidation dropped the loop")
	}
	lc.InvalidateRange(0xc0, 0x140) // overlaps the branch
	if _, ok := lc.Lookup(0x80); ok {
		t.Fatal("overlapping invalidation kept the loop")
	}
}

func TestDisabled(t *testing.T) {
	lc := New(Config{MaxUops: 16, TrainThreshold: 1, Enabled: false})
	if lc.ObserveBackwardTaken(1, 0) {
		t.Fatal("disabled loop cache should not train")
	}
	if lc.Install(Loop{Start: 1, BranchPC: 2, InstIDs: []uint32{1}, NumUops: 1}) {
		t.Fatal("disabled loop cache should not install")
	}
}

func TestStats(t *testing.T) {
	lc := New(DefaultConfig())
	lc.Install(Loop{Start: 1, BranchPC: 2, InstIDs: []uint32{1}, NumUops: 2})
	lc.NoteServed(8)
	captures, served := lc.Stats()
	if captures != 1 || served != 8 {
		t.Errorf("stats = %d/%d", captures, served)
	}
}

// TestInstallCopiesIntoOwnedSlot pins Install's ownership rule: the body is
// copied into storage the loop cache owns, so the caller may reuse its ID
// slice at once, and re-capturing a loop reuses that storage rather than
// allocating.
func TestInstallCopiesIntoOwnedSlot(t *testing.T) {
	lc := New(DefaultConfig())
	ids := []uint32{1, 2, 3}
	if !lc.Install(Loop{Start: 0x80, BranchPC: 0x90, InstIDs: ids, NumUops: 3}) {
		t.Fatal("install refused")
	}
	ids[0] = 99 // caller reuses its scratch
	got, ok := lc.Lookup(0x80)
	if !ok || got.InstIDs[0] != 1 || len(got.InstIDs) != 3 {
		t.Fatalf("installed body aliases the caller's slice: %+v", got)
	}
	other := Loop{Start: 0x200, BranchPC: 0x210, InstIDs: []uint32{7, 8}, NumUops: 2}
	if n := testing.AllocsPerRun(50, func() { lc.Install(other) }); n != 0 {
		t.Errorf("re-capture allocates %.1f objects", n)
	}
	if got, ok := lc.Lookup(0x200); !ok || len(got.InstIDs) != 2 || got.InstIDs[1] != 8 {
		t.Fatalf("re-capture: %+v", got)
	}
}
