package decode

import "testing"

// push enters v at cycle through the in-place slot.
func push[T any](p *Pipe[T], cycle int64, v T) { *p.Push(cycle) = v }

// pop peeks and drops the oldest item if it has completed by cycle.
func pop[T any](p *Pipe[T], cycle int64) (T, bool) {
	var zero T
	v := p.Peek(cycle)
	if v == nil {
		return zero, false
	}
	out := *v
	p.Drop()
	return out, true
}

func TestPipeLatency(t *testing.T) {
	p := NewPipe[int](3, 2, 16)
	push(p, 10, 42)
	for c := int64(10); c < 13; c++ {
		if _, ok := pop(p, c); ok {
			t.Fatalf("item emerged at cycle %d, before latency elapsed", c)
		}
	}
	v, ok := pop(p, 13)
	if !ok || v != 42 {
		t.Fatalf("expected item at cycle 13, got (%v,%v)", v, ok)
	}
}

func TestPipeWidthPerCycle(t *testing.T) {
	p := NewPipe[int](1, 2, 16)
	if !p.CanPush(5) {
		t.Fatal("fresh pipe should accept")
	}
	push(p, 5, 1)
	push(p, 5, 2)
	if p.CanPush(5) {
		t.Fatal("third push in one cycle must be refused (width 2)")
	}
	if !p.CanPush(6) {
		t.Fatal("next cycle should accept again")
	}
}

func TestPipeOrdering(t *testing.T) {
	p := NewPipe[int](2, 4, 16)
	for i := 0; i < 4; i++ {
		push(p, 0, i)
	}
	for i := 0; i < 4; i++ {
		v, ok := pop(p, 2)
		if !ok || v != i {
			t.Fatalf("pop %d = (%v,%v)", i, v, ok)
		}
	}
}

func TestPipeCapacity(t *testing.T) {
	p := NewPipe[int](4, 2, 4)
	push(p, 0, 0)
	push(p, 0, 1)
	push(p, 1, 2)
	push(p, 1, 3)
	if p.CanPush(2) {
		t.Fatal("full pipe must refuse pushes regardless of cycle")
	}
	pop(p, 10)
	if !p.CanPush(10) {
		t.Fatal("pop should free capacity")
	}
}

func TestPipePeek(t *testing.T) {
	p := NewPipe[string](1, 1, 4)
	push(p, 0, "x")
	if p.Peek(0) != nil {
		t.Fatal("peek before ready")
	}
	v := p.Peek(1)
	if v == nil || *v != "x" {
		t.Fatal("peek at ready failed")
	}
	if p.Len() != 1 {
		t.Fatal("peek must not remove")
	}
	p.Drop()
	if p.Len() != 0 {
		t.Fatal("drop must remove")
	}
}

// TestPipeInPlace pins the in-place contract: Peek and At return the slot
// itself (writes through them are seen by later reads), and every slot a
// Drop or Flush vacates comes back zero from the next Push, including
// after the ring has wrapped.
func TestPipeInPlace(t *testing.T) {
	p := NewPipe[[]int](1, 1, 3)
	for c := int64(0); c < 5; c++ { // wrap the ring
		*p.Push(c) = []int{int(c)}
		if c >= 1 {
			if _, ok := pop(p, c); !ok {
				t.Fatalf("cycle %d: nothing ready", c)
			}
		}
	}
	*p.Push(5) = []int{5}
	if p.Len() != 2 || p.At(0) != p.Peek(10) || (*p.At(1))[0] != 5 {
		t.Fatalf("At/Peek disagree on the in-flight items (len %d)", p.Len())
	}
	(*p.Peek(10))[0] = 40
	if (*p.At(0))[0] != 40 {
		t.Fatal("a write through Peek did not reach the slot")
	}
	p.Flush()
	for c := int64(20); c < 23; c++ {
		if v := p.Push(c); *v != nil {
			t.Fatalf("push at cycle %d returned a stale slot %v", c, *v)
		}
	}
}

func TestPipeFlush(t *testing.T) {
	p := NewPipe[int](2, 2, 8)
	push(p, 0, 1)
	push(p, 0, 2)
	p.Flush()
	if p.Len() != 0 {
		t.Fatal("flush incomplete")
	}
	if _, ok := pop(p, 100); ok {
		t.Fatal("flushed pipe returned an item")
	}
	// Width accounting resets with the flush.
	push(p, 0, 3)
	push(p, 0, 4)
	if p.CanPush(0) {
		t.Fatal("width limit should apply after flush")
	}
}

func TestPipePushPanicsWhenFull(t *testing.T) {
	p := NewPipe[int](1, 1, 1)
	push(p, 0, 1)
	defer func() {
		if recover() == nil {
			t.Error("push on full pipe should panic")
		}
	}()
	push(p, 1, 2)
}

func TestPipeDegenerateParams(t *testing.T) {
	p := NewPipe[int](0, 0, 0) // clamped to sane minimums
	push(p, 0, 7)
	if v, ok := pop(p, 1); !ok || v != 7 {
		t.Fatal("clamped pipe broken")
	}
}
