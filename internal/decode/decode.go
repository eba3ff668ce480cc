// Package decode models the x86 decode pipeline of Table I: a fixed-width,
// fixed-latency pipe (4 instructions/cycle, 3 cycles) that turns variable
// length instructions into uops. The heavy lifting of instruction
// identification is abstracted as the pipe latency; energy is accounted by
// internal/power.
package decode

import "uopsim/internal/stats"

// Pipe is a fixed-latency, width-limited pipeline stage: at most Width items
// enter per cycle, and each item exits Latency cycles later, in order.
type Pipe[T any] struct {
	latency int
	width   int

	slots []pipeSlot[T]
	head  int
	count int

	lastPushCycle int64
	pushedThis    int

	pushes stats.Counter
}

// RegisterMetrics publishes the pipe's push counter and occupancy gauge
// under sc (mount points like "decode.pipe.oc").
func (p *Pipe[T]) RegisterMetrics(sc stats.Scope) {
	sc.RegisterCounter("pushes", &p.pushes)
	sc.RegisterGauge("occ", func() float64 { return float64(p.count) })
}

// Pushes returns how many items have entered the pipe.
func (p *Pipe[T]) Pushes() uint64 { return p.pushes.Value() }

type pipeSlot[T any] struct {
	value T
	ready int64
}

// NewPipe builds a pipe with the given latency, per-cycle width and buffer
// capacity (capacity bounds total in-flight items).
func NewPipe[T any](latency, width, capacity int) *Pipe[T] {
	if latency < 1 {
		latency = 1
	}
	if width < 1 {
		width = 1
	}
	if capacity < width {
		capacity = width * latency
	}
	return &Pipe[T]{latency: latency, width: width, slots: make([]pipeSlot[T], capacity), lastPushCycle: -1}
}

// CanPush reports whether another item can enter at the given cycle.
func (p *Pipe[T]) CanPush(cycle int64) bool {
	if p.count == len(p.slots) {
		return false
	}
	return cycle != p.lastPushCycle || p.pushedThis < p.width
}

// Push enters a new item at cycle and returns its slot for the caller to
// fill in place; it must be guarded by CanPush. The slot is zero: Drop and
// Flush clear every slot they vacate, so no item leaves a stale copy (or a
// second owner of anything it references) behind.
func (p *Pipe[T]) Push(cycle int64) *T {
	if !p.CanPush(cycle) {
		panic("decode: push on full pipe")
	}
	if cycle != p.lastPushCycle {
		p.lastPushCycle = cycle
		p.pushedThis = 0
	}
	p.pushedThis++
	p.pushes.Inc()
	sl := &p.slots[p.wrap(p.head+p.count)]
	sl.ready = cycle + int64(p.latency)
	p.count++
	return &sl.value
}

// Peek returns the oldest item in place if it has completed by cycle, else
// nil. The pointer is valid until the item is dropped or the pipe flushed.
func (p *Pipe[T]) Peek(cycle int64) *T {
	if p.count == 0 || p.slots[p.head].ready > cycle {
		return nil
	}
	return &p.slots[p.head].value
}

// Drop removes the oldest item (the one Peek returned) and clears its slot.
func (p *Pipe[T]) Drop() {
	if p.count == 0 {
		panic("decode: drop on empty pipe")
	}
	p.slots[p.head] = pipeSlot[T]{}
	p.head = p.wrap(p.head + 1)
	p.count--
}

// At returns the i-th in-flight item, oldest first (0 <= i < Len), ready
// or not.
func (p *Pipe[T]) At(i int) *T {
	return &p.slots[p.wrap(p.head+i)].value
}

// wrap maps a position in [0, 2*len(slots)) onto the slot ring by compare
// and subtract: every caller adds at most the ring length to head.
func (p *Pipe[T]) wrap(i int) int {
	if i >= len(p.slots) {
		i -= len(p.slots)
	}
	return i
}

// Len returns the number of in-flight items.
func (p *Pipe[T]) Len() int { return p.count }

// Flush discards all in-flight items (pipeline redirect). Only the occupied
// slots are cleared: the others are already zero.
func (p *Pipe[T]) Flush() {
	for i := 0; i < p.count; i++ {
		p.slots[p.wrap(p.head+i)] = pipeSlot[T]{}
	}
	p.head, p.count = 0, 0
	p.lastPushCycle = -1
	p.pushedThis = 0
}
