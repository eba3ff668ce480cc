// Package uopq defines the dynamic micro-op record that flows from the three
// fetch paths (uop cache, decoder, loop cache) to the back end, and the
// fixed-capacity micro-op queue of Table I (120 uops) that decouples them.
package uopq

import (
	"uopsim/internal/isa"
	"uopsim/internal/stats"
)

// Source identifies which front-end path supplied a uop.
type Source uint8

const (
	// SrcDecoder marks uops from the I-cache + x86 decoder path.
	SrcDecoder Source = iota
	// SrcUopCache marks uops from the uop cache (decoder bypassed).
	SrcUopCache
	// SrcLoopCache marks uops replayed by the loop cache.
	SrcLoopCache
)

var srcNames = []string{"decoder", "opcache", "loopcache"}

// String names the source.
func (s Source) String() string {
	if int(s) < len(srcNames) {
		return srcNames[s]
	}
	return "src?"
}

// Uop is one dynamic micro-operation.
type Uop struct {
	// Inst is the static instruction this uop expands.
	Inst *isa.Inst
	// UopIdx is this uop's index within the instruction's expansion.
	UopIdx uint8
	// LastOfInst marks the final uop of the instruction (retirement
	// granularity and branch resolution point).
	LastOfInst bool
	// Source is the supplying front-end path.
	Source Source
	// FetchCycle is when the instruction entered the front end (branch
	// misprediction latency is measured from here, §III-C).
	FetchCycle int64
	// WrongPath marks uops fetched past an unresolved misprediction; they
	// are squashed at redirect and never commit.
	WrongPath bool

	// MemAddr is the effective address for memory uops on the correct path.
	MemAddr uint64

	// Branch resolution info (meaningful when Inst is a branch and this is
	// its last uop, on the correct path).
	ActualTaken bool
	ActualNext  uint64
	// Mispredicted marks a correct-path branch whose prediction (direction
	// or target) was wrong; resolving it triggers the pipeline redirect.
	Mispredicted bool
}

// Queue is a bounded FIFO of uops. It hands out its slots rather than
// copying uops in and out: Push returns the tail slot for the producer to
// fill, and Peek returns the head slot for the consumer to read in place.
type Queue struct {
	buf        []Uop
	head, size int

	pushes  stats.Counter
	flushes stats.Counter
}

// RegisterMetrics publishes the queue's counters under sc (expected mount
// point: "uopq").
func (q *Queue) RegisterMetrics(sc stats.Scope) {
	sc.RegisterCounter("pushes", &q.pushes)
	sc.RegisterCounter("flushes", &q.flushes)
	sc.RegisterGauge("occ", func() float64 { return float64(q.size) })
}

// NewQueue builds a queue with the given capacity.
func NewQueue(capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue{buf: make([]Uop, capacity)}
}

// Cap returns the capacity.
func (q *Queue) Cap() int { return len(q.buf) }

// Len returns the occupancy.
func (q *Queue) Len() int { return q.size }

// Free returns remaining slots.
func (q *Queue) Free() int { return len(q.buf) - q.size }

// Push claims the tail slot and returns it for the caller to fill in place,
// or nil when the queue is full. The slot still holds whatever uop last
// occupied it; the caller overwrites every field.
//
//uopvet:hotpath
func (q *Queue) Push() *Uop {
	if q.size == len(q.buf) {
		return nil
	}
	i := q.head + q.size
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.size++
	q.pushes.Inc()
	return &q.buf[i]
}

// Peek returns the oldest uop in place, or nil when the queue is empty.
// The pointer is valid until the uop is popped and its slot pushed again.
//
//uopvet:hotpath
func (q *Queue) Peek() *Uop {
	if q.size == 0 {
		return nil
	}
	return &q.buf[q.head]
}

// Pop removes the oldest uop; it reports false when the queue is empty.
//
//uopvet:hotpath
func (q *Queue) Pop() bool {
	if q.size == 0 {
		return false
	}
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.size--
	return true
}

// Flush discards all queued uops (pipeline redirect).
func (q *Queue) Flush() {
	q.head, q.size = 0, 0
	q.flushes.Inc()
}
