package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// spanNames are the spans the benchmark records around its own calls into
// each layer. Serve requests: request → client.encode, http, check (which
// decodes the answer). Simulation points: point → sim.build, sim.run,
// sim.digest.
var spanNames = []string{"request", "client.encode", "http", "check",
	"point", "sim.build", "sim.run", "sim.digest"}

// span is one timed interval; Start and End are nanoseconds since the
// tracer started, Req ties the spans of one request together.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the run; write dumps them at the end.
// A disabled tracer records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	ids   int64  // guarded by mu
	spans []span // guarded by mu
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// newID reserves a span ID, so a parent can be named before it ends.
func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	return t.ids
}

// add records a finished span; id 0 allocates one.
func (t *tracer) add(name string, id, parent, req int64, start, end time.Time) {
	if !t.on {
		return
	}
	if id == 0 {
		id = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// report sets span.<name>.self_us: the mean over that span's instances of
// its duration minus the part its children cover.
func (t *tracer) report(rep *report) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string][]float64{}
	for _, s := range t.spans {
		self[s.Name] = append(self[s.Name], float64(s.End-s.Start-covered(children[s.ID]))/1e3)
	}
	for _, name := range spanNames {
		rep.set("span."+name+".self_us", mean(self[name]), len(self[name]))
	}
}

// covered is the length of the union of the spans' intervals.
func covered(ss []span) int64 {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var total, end int64
	for _, s := range ss {
		start := s.Start
		if start < end {
			start = end
		}
		if s.End > start {
			total += s.End - start
			end = s.End
		}
	}
	return total
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
