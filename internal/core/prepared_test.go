package core

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"lbmm/internal/algo"
	"lbmm/internal/graph"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// TestPreparedMultiplyConcurrent locks in the concurrency contract of
// Prepared.Multiply: prepare once, then hammer the plan from many goroutines
// with distinct value sets. Run under -race (the CI race job does), every
// product must match the reference, and — the supported model's promise —
// every execution of the one plan must cost the identical number of rounds.
func TestPreparedMultiplyConcurrent(t *testing.T) {
	r := ring.Counting{}
	inst := workload.Blocks(32, 4)
	prep, err := Prepare(inst.Ahat, inst.Bhat, inst.Xhat, Options{Ring: r})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const perGoroutine = 3
	rounds := make([]int, goroutines*perGoroutine)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perGoroutine; k++ {
				seed := int64(1 + 2*(g*perGoroutine+k))
				a := matrix.Random(inst.Ahat, r, seed)
				b := matrix.Random(inst.Bhat, r, seed+1)
				x, rep, err := prep.Multiply(a, b)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				want := matrix.MulReference(a, b, inst.Xhat)
				if !matrix.Equal(x, want) {
					t.Errorf("goroutine %d: wrong product for seed %d", g, seed)
					return
				}
				rounds[g*perGoroutine+k] = rep.Rounds
			}
		}(g)
	}
	wg.Wait()
	for i, rd := range rounds {
		if rd != rounds[0] {
			t.Errorf("execution %d took %d rounds, execution 0 took %d — rounds must depend on structure only",
				i, rd, rounds[0])
		}
	}
}

// TestPrepareCompiledOnly: a plan prepared for the default (compiled)
// engine keeps no map-engine planning state — the same shape as a plan
// restored from the store — while Engine "map" keeps both forms.
func TestPrepareCompiledOnly(t *testing.T) {
	r := ring.Counting{}
	inst := workload.Blocks(16, 4)
	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	for _, engine := range []string{"", "compiled", "map"} {
		prep, err := Prepare(inst.Ahat, inst.Bhat, inst.Xhat, Options{Ring: r, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = prep.inner.MultiplyOn(algo.EngineMap, a, b)
		if engine == "map" {
			if err != nil {
				t.Errorf("engine map: map multiply: %v", err)
			}
		} else if !errors.Is(err, algo.ErrNoMapForm) {
			t.Errorf("engine %q: map multiply err = %v, want ErrNoMapForm", engine, err)
		}
		if _, _, err := prep.Multiply(a, b); err != nil {
			t.Errorf("engine %q: multiply: %v", engine, err)
		}
	}
}

// TestCompiledBytesTracksRetainedHeap: a serving cache charges each plan
// its CompiledBytes, so that figure must cover most of the heap a cached
// plan really retains. Each plan is prepared from its own copies of the
// supports, as a serving request brings them, with a GC before every heap
// read; averaging over several plans keeps one noisy reading from
// deciding.
func TestCompiledBytesTracksRetainedHeap(t *testing.T) {
	const plans = 8
	clone := func(s *matrix.Support) *matrix.Support {
		c, err := matrix.SupportFromRows(s.N, s.Rows)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, tc := range []struct {
		name string
		inst *graph.Instance
	}{
		{"Blocks(48,4)", workload.Blocks(48, 4)},
		{"Blocks(64,4)", workload.Blocks(64, 4)},
		{"PowerLaw(128,6)", workload.PowerLaw(128, 6, 1)},
		{"PowerLaw(64,4)", workload.PowerLaw(64, 4, 1)},
	} {
		var retained, charged int64
		keep := make([]*Prepared, 0, plans)
		for i := 0; i < plans; i++ {
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			prep, err := Prepare(clone(tc.inst.Ahat), clone(tc.inst.Bhat), clone(tc.inst.Xhat),
				Options{Ring: ring.Counting{}})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			runtime.GC()
			runtime.ReadMemStats(&m1)
			retained += int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
			charged += prep.CompiledBytes()
			keep = append(keep, prep)
		}
		runtime.KeepAlive(keep)
		frac := float64(charged) / float64(retained)
		t.Logf("%s: retained %.1f KB/plan, charged %.1f KB/plan, accounted %.2f",
			tc.name, float64(retained)/plans/1024, float64(charged)/plans/1024, frac)
		if frac < 0.6 {
			t.Errorf("%s: CompiledBytes covers %.2f of the retained heap, want >= 0.6", tc.name, frac)
		}
	}
}
