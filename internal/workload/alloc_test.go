package workload

import "testing"

// TestWalkerStepAllocFree pins the walker's per-step allocation behaviour:
// once the call stack has reached its steady-state capacity, Next must not
// allocate at all — every behaviour lookup and every piece of dynamic state
// (loop trips, pattern positions, indirect runs, memory stream offsets) is a
// dense slice sized at construction.
func TestWalkerStepAllocFree(t *testing.T) {
	prof, err := ByName("bm_cc")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := Build(prof)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWalker(wl)
	for i := 0; i < 200_000; i++ {
		w.Next()
	}
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < 5_000; i++ {
			w.Next()
		}
	})
	if avg != 0 {
		t.Errorf("walker allocated %.1f times per 5k steady-state steps, want 0", avg)
	}
}

// TestWalkerStatePerBehavior pins the walker's state sizing: each state
// array has exactly one slot per behaviour of its kind, and every
// behaviour has its own ordinal, so no slot is shared and none is paid for
// by an instruction that never reads it.
func TestWalkerStatePerBehavior(t *testing.T) {
	for _, name := range []string{"bm_cc", "redis"} {
		prof, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		wl, err := Build(prof)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWalker(wl)
		cond, ind, mem := len(wl.Behaviors.Cond), len(wl.Behaviors.Indirect), len(wl.Behaviors.Mem)
		if cond == 0 || ind == 0 || mem == 0 {
			t.Fatalf("%s: want every behaviour kind present, got cond=%d ind=%d mem=%d", name, cond, ind, mem)
		}
		for _, c := range []struct {
			what      string
			got, want int
		}{
			{"trips", len(w.trips), cond},
			{"patPos", len(w.patPos), cond},
			{"indRun", len(w.indRun), ind},
			{"memPos", len(w.memPos), mem},
		} {
			if c.got != c.want {
				t.Errorf("%s: %s has %d slots, want %d (one per behaviour)", name, c.what, c.got, c.want)
			}
		}
		ords := 0
		for _, o := range w.idx.ord {
			if o != 0 {
				ords++
			}
		}
		if ords != cond+ind+mem {
			t.Errorf("%s: %d instructions have an ordinal, want %d", name, ords, cond+ind+mem)
		}
	}
}
