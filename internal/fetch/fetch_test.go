package fetch

import (
	"testing"

	"uopsim/internal/bpred"
	"uopsim/internal/isa"
)

// trainTaken biases the predictor strongly toward taking the conditional
// branch at pc.
func trainTaken(p *bpred.Predictor, pc uint64, taken bool) {
	for i := 0; i < 32; i++ {
		var pred bpred.Pred
		p.PredictCond(pc, &pred)
		p.UpdateCond(pc, &pred, taken)
		p.ArchShift(taken)
		p.SpecShift(taken)
	}
}

func TestPWLineEndWithoutBranches(t *testing.T) {
	p := bpred.New()
	b := NewBuilder(DefaultConfig(), p)
	var pw PW
	b.Build(&pw, 0x1010)
	if pw.Term != TermLineEnd {
		t.Fatalf("term = %v", pw.Term)
	}
	if pw.End != 0x1040 || pw.NextPC != 0x1040 {
		t.Errorf("end=%#x next=%#x, want line end", pw.End, pw.NextPC)
	}
	if pw.EndsTaken || len(pw.Conds) != 0 {
		t.Error("empty-BTB window should predict pure fallthrough")
	}
}

func TestPWTakenBranchTerminates(t *testing.T) {
	p := bpred.New()
	p.TrainTarget(0x1010, isa.BranchJump, 0x4000, 5)
	b := NewBuilder(DefaultConfig(), p)
	var pw PW
	b.Build(&pw, 0x1000)
	if !pw.EndsTaken || pw.Term != TermTaken {
		t.Fatalf("unconditional jump should terminate the window: %+v", pw)
	}
	if pw.TakenPC != 0x1010 || pw.End != 0x1015 || pw.NextPC != 0x4000 {
		t.Errorf("pw=%+v", pw)
	}
	if pw.TerminalKind != isa.BranchJump {
		t.Errorf("kind=%v", pw.TerminalKind)
	}
}

func TestPWTakenConditional(t *testing.T) {
	p := bpred.New()
	p.TrainTarget(0x1008, isa.BranchCond, 0x5000, 4)
	trainTaken(p, 0x1008, true)
	b := NewBuilder(DefaultConfig(), p)
	var pw PW
	b.Build(&pw, 0x1000)
	if !pw.EndsTaken || pw.TakenPC != 0x1008 || pw.NextPC != 0x5000 {
		t.Fatalf("pw=%+v", pw)
	}
	if len(pw.Conds) != 1 || !pw.Conds[0].Taken {
		t.Errorf("conds=%+v", pw.Conds)
	}
}

func TestPWNotTakenContinues(t *testing.T) {
	p := bpred.New()
	p.TrainTarget(0x1008, isa.BranchCond, 0x5000, 4)
	trainTaken(p, 0x1008, false)
	b := NewBuilder(DefaultConfig(), p)
	var pw PW
	b.Build(&pw, 0x1000)
	if pw.EndsTaken {
		t.Fatal("not-taken conditional must not terminate the window")
	}
	if pw.Term != TermLineEnd || pw.End != 0x1040 {
		t.Errorf("pw=%+v", pw)
	}
	if len(pw.Conds) != 1 || pw.Conds[0].Taken {
		t.Errorf("conds=%+v", pw.Conds)
	}
}

func TestPWNotTakenBudget(t *testing.T) {
	p := bpred.New()
	// Two not-taken conditionals within the line exhaust the default budget.
	p.TrainTarget(0x1008, isa.BranchCond, 0x5000, 4)
	p.TrainTarget(0x1018, isa.BranchCond, 0x6000, 4)
	trainTaken(p, 0x1008, false)
	trainTaken(p, 0x1018, false)
	b := NewBuilder(DefaultConfig(), p)
	var pw PW
	b.Build(&pw, 0x1000)
	if pw.Term != TermMaxNT {
		t.Fatalf("term = %v, want not-taken budget", pw.Term)
	}
	if pw.End != 0x101c || pw.NextPC != 0x101c {
		t.Errorf("budget-terminated window should end after the second branch: %+v", pw)
	}
	if len(pw.Conds) != 2 {
		t.Errorf("conds=%d", len(pw.Conds))
	}
}

func TestPWCallPushesRAS(t *testing.T) {
	p := bpred.New()
	p.TrainTarget(0x1010, isa.BranchCall, 0x7000, 5)
	p.TrainTarget(0x7000, isa.BranchRet, 0, 1)
	b := NewBuilder(DefaultConfig(), p)
	var pw1 PW
	b.Build(&pw1, 0x1000)
	if pw1.NextPC != 0x7000 {
		t.Fatalf("call window: %+v", pw1)
	}
	var pw2 PW
	b.Build(&pw2, pw1.NextPC)
	if !pw2.EndsTaken || pw2.TerminalKind != isa.BranchRet {
		t.Fatalf("return window: %+v", pw2)
	}
	if pw2.NextPC != 0x1015 {
		t.Errorf("return should target the call fallthrough, got %#x", pw2.NextPC)
	}
}

func TestPWInstancesIncrease(t *testing.T) {
	p := bpred.New()
	b := NewBuilder(DefaultConfig(), p)
	var a PW
	b.Build(&a, 0x1000)
	var c PW
	b.Build(&c, 0x1040)
	if c.Instance <= a.Instance {
		t.Error("instances must increase")
	}
	built, _, lineEnd, _ := b.Stats()
	if built != 2 || lineEnd != 2 {
		t.Errorf("stats: built=%d lineEnd=%d", built, lineEnd)
	}
}

func TestPWMidLineStart(t *testing.T) {
	p := bpred.New()
	b := NewBuilder(DefaultConfig(), p)
	var pw PW
	b.Build(&pw, 0x1035)
	if pw.Start != 0x1035 || pw.End != 0x1040 {
		t.Errorf("mid-line window: %+v", pw)
	}
}

// TestPWBuildOverwritesInPlace pins the in-place contract: building into a
// window that held a previous, taken-terminated window leaves none of its
// state behind, and the Conds backing array is reused rather than
// reallocated.
func TestPWBuildOverwritesInPlace(t *testing.T) {
	p := bpred.New()
	p.TrainTarget(0x1008, isa.BranchCond, 0x3000, 2)
	trainTaken(p, 0x1008, true)
	b := NewBuilder(DefaultConfig(), p)
	var pw PW
	b.Build(&pw, 0x1000)
	if !pw.EndsTaken || len(pw.Conds) != 1 || !pw.Conds[0].Taken {
		t.Fatalf("first window should end at the taken conditional: %+v", pw)
	}
	conds := &pw.Conds[:1][0]
	b.Build(&pw, 0x2000)
	if pw.EndsTaken || pw.TakenPC != 0 || len(pw.Conds) != 0 || pw.Start != 0x2000 || pw.End != 0x2040 {
		t.Fatalf("second window kept stale state: %+v", pw)
	}
	b.Build(&pw, 0x1000)
	if &pw.Conds[0] != conds {
		t.Error("rebuilding a window reallocated its Conds array")
	}
	if allocs := testing.AllocsPerRun(100, func() { b.Build(&pw, 0x1000) }); allocs != 0 {
		t.Errorf("Build into a warmed window allocates %.1f objects", allocs)
	}
}
