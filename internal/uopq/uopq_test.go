package uopq

import (
	"testing"

	"uopsim/internal/isa"
)

// push fills the queue's tail slot with a uop of in; it reports false when
// the queue is full.
func push(q *Queue, in *isa.Inst) bool {
	u := q.Push()
	if u == nil {
		return false
	}
	*u = Uop{Inst: in}
	return true
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(4)
	insts := []isa.Inst{{ID: 1}, {ID: 2}, {ID: 3}}
	for i := range insts {
		if !push(q, &insts[i]) {
			t.Fatalf("push %d failed", i)
		}
	}
	for i := range insts {
		u := q.Peek()
		if u == nil || u.Inst.ID != insts[i].ID || !q.Pop() {
			t.Fatalf("pop %d wrong", i)
		}
	}
	if q.Pop() {
		t.Fatal("empty pop should fail")
	}
}

func TestQueueCapacity(t *testing.T) {
	q := NewQueue(2)
	in := isa.Inst{}
	if q.Cap() != 2 {
		t.Fatalf("cap = %d", q.Cap())
	}
	push(q, &in)
	push(q, &in)
	if q.Push() != nil {
		t.Fatal("push past capacity should fail")
	}
	if q.Free() != 0 || q.Len() != 2 {
		t.Fatalf("free=%d len=%d", q.Free(), q.Len())
	}
	q.Pop()
	if q.Free() != 1 {
		t.Fatal("pop should free a slot")
	}
}

func TestQueueWraparound(t *testing.T) {
	q := NewQueue(3)
	in := [10]isa.Inst{}
	for i := 0; i < 10; i++ {
		in[i].ID = uint32(i)
		if !push(q, &in[i]) {
			t.Fatalf("push %d failed", i)
		}
		u := q.Peek()
		if u == nil || u.Inst.ID != uint32(i) || !q.Pop() {
			t.Fatalf("wrap pop %d wrong", i)
		}
	}
}

func TestQueuePeek(t *testing.T) {
	q := NewQueue(2)
	in := isa.Inst{ID: 9}
	if q.Peek() != nil {
		t.Fatal("peek on empty should fail")
	}
	push(q, &in)
	u := q.Peek()
	if u == nil || u.Inst.ID != 9 || q.Len() != 1 {
		t.Fatal("peek wrong")
	}
	// Peek hands out the slot itself: a write through it is what the
	// next Peek sees.
	u.MemAddr = 0x40
	if q.Peek().MemAddr != 0x40 {
		t.Fatal("peek did not return the slot in place")
	}
}

func TestQueueFlush(t *testing.T) {
	q := NewQueue(4)
	in := isa.Inst{}
	push(q, &in)
	q.Flush()
	if q.Len() != 0 {
		t.Fatal("flush incomplete")
	}
}

func TestSourceString(t *testing.T) {
	if SrcDecoder.String() != "decoder" || SrcUopCache.String() != "opcache" || SrcLoopCache.String() != "loopcache" {
		t.Error("source names wrong")
	}
	if Source(9).String() != "src?" {
		t.Error("fallback name wrong")
	}
}

func TestMinimumCapacity(t *testing.T) {
	q := NewQueue(0)
	if q.Cap() < 1 {
		t.Fatal("queue must have at least one slot")
	}
}
