package lbm

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"lbmm/internal/ring"
)

// compareMachines checks that two map machines hold exactly the same stores
// (restricted, for a partitioned machine, to the nodes it owns).
func compareMachineOwned(t *testing.T, ref, got *Machine) {
	t.Helper()
	for node := range ref.stores {
		if !got.Owns(NodeID(node)) {
			if len(got.stores[node]) != 0 {
				t.Errorf("node %d: partitioned machine holds %d values it does not own", node, len(got.stores[node]))
			}
			continue
		}
		if len(ref.stores[node]) != len(got.stores[node]) {
			t.Errorf("node %d: %d values vs %d", node, len(ref.stores[node]), len(got.stores[node]))
		}
		for k, v := range ref.stores[node] {
			if gv, ok := got.stores[node][k]; !ok || gv != v {
				t.Errorf("node %d key %v: want %v, got (%v,%v)", node, k, v, gv, ok)
			}
		}
	}
}

// TestLoopbackParityMachine holds the loopback transport to bit-identical
// stores and Stats against the nil-transport map engine on random plans.
func TestLoopbackParityMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		p, loads := randomPlan(rng, 6, 1+rng.Intn(6), true)
		ref, err := runMap(t, p, loads, ring.Real{})
		if err != nil {
			t.Fatalf("trial %d: nil transport: %v", trial, err)
		}
		lb, err := runMap(t, p, loads, ring.Real{}, WithTransport(&Loopback{}))
		if err != nil {
			t.Fatalf("trial %d: loopback: %v", trial, err)
		}
		compareMachineOwned(t, ref, lb)
		if !reflect.DeepEqual(ref.Stats(), lb.Stats()) {
			t.Fatalf("trial %d: stats diverge:\n nil      %+v\n loopback %+v", trial, ref.Stats(), lb.Stats())
		}
	}
}

// TestLoopbackParityExec does the same for the compiled engine, including a
// multi-lane executor.
func TestLoopbackParityExec(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		p, loads := randomPlan(rng, 6, 1+rng.Intn(6), true)
		sp, ref, err := runCompiled(t, p, loads, ring.Real{})
		if err != nil {
			t.Fatalf("trial %d: nil transport: %v", trial, err)
		}
		_, lb, err := runCompiled(t, p, loads, ring.Real{}, WithTransport(&Loopback{}))
		if err != nil {
			t.Fatalf("trial %d: loopback: %v", trial, err)
		}
		sp.EachKey(func(node NodeID, k Key, slot int32) {
			rv, rok := ref.GetLane(SlotRef{Node: node, Slot: slot}, 0)
			lv, lok := lb.GetLane(SlotRef{Node: node, Slot: slot}, 0)
			if rok != lok || rv != lv {
				t.Errorf("trial %d node %d key %v: nil (%v,%v) vs loopback (%v,%v)", trial, node, k, rv, rok, lv, lok)
			}
		})
		if !reflect.DeepEqual(ref.Stats(), lb.Stats()) {
			t.Fatalf("trial %d: stats diverge:\n nil      %+v\n loopback %+v", trial, ref.Stats(), lb.Stats())
		}
	}
}

// TestLoopbackRoundBytes pins the RoundBytes accounting: one value is 8
// bytes, rounds of only local copies are not counted, and the nil and
// loopback paths agree.
func TestLoopbackRoundBytes(t *testing.T) {
	m := New(3, ring.Real{})
	m.Put(0, AKey(0, 0), 7)
	m.Put(1, AKey(1, 1), 8)
	r := Round{
		{From: 0, To: 1, Src: AKey(0, 0), Dst: TKey(0, 1, 0), Op: OpSet},
		{From: 1, To: 2, Src: AKey(1, 1), Dst: TKey(0, 2, 0), Op: OpSet},
	}
	if err := m.RunRound(r); err != nil {
		t.Fatal(err)
	}
	if err := m.RunRound(Round{{From: 2, To: 2, Src: TKey(0, 2, 0), Dst: TKey(1, 2, 0), Op: OpSet}}); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if want := []int64{16}; !reflect.DeepEqual(st.RoundBytes, want) {
		t.Fatalf("RoundBytes = %v, want %v", st.RoundBytes, want)
	}
}

// ---------------------------------------------------------------------------
// In-process partitioned transport for testing: P participants over shared
// memory with a real per-round barrier, the semantics dist.Mesh implements
// over sockets.

type testRouter struct {
	mu      sync.Mutex
	cond    *sync.Cond
	ranks   int
	arrived int
	gen     int
	pool    map[NodeID][]ring.Value
	ready   map[NodeID][]ring.Value
}

func newTestRouter(ranks int) *testRouter {
	r := &testRouter{ranks: ranks, pool: map[NodeID][]ring.Value{}}
	r.cond = sync.NewCond(&r.mu)
	return r
}

func (r *testRouter) deliver(sent map[NodeID][]ring.Value) map[NodeID][]ring.Value {
	r.mu.Lock()
	defer r.mu.Unlock()
	gen := r.gen
	for k, v := range sent {
		r.pool[k] = v
	}
	r.arrived++
	if r.arrived == r.ranks {
		r.ready = r.pool
		r.pool = map[NodeID][]ring.Value{}
		r.arrived = 0
		r.gen++
		r.cond.Broadcast()
	} else {
		for gen == r.gen {
			r.cond.Wait()
		}
	}
	return r.ready
}

type testTransport struct {
	router *testRouter
	rank   int
	sent   map[NodeID][]ring.Value
}

func (tt *testTransport) Owns(v NodeID) bool { return int(v)%tt.router.ranks == tt.rank }

func (tt *testTransport) Send(round int, dst NodeID, payload []ring.Value) error {
	if tt.sent == nil {
		tt.sent = map[NodeID][]ring.Value{}
	}
	tt.sent[dst] = payload
	return nil
}

func (tt *testTransport) Deliver(round int) (map[NodeID][]ring.Value, error) {
	sent := tt.sent
	tt.sent = nil
	return tt.router.deliver(sent), nil
}

// TestPartitionedParityMachine runs the map engine split across 3 in-process
// participants and checks that the union of their owned stores and the merge
// of their Stats equal the single-process run.
func TestPartitionedParityMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const ranks = 3
	for trial := 0; trial < 25; trial++ {
		p, loads := randomPlan(rng, 6, 1+rng.Intn(6), true)
		ref, err := runMap(t, p, loads, ring.Real{})
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		router := newTestRouter(ranks)
		ms := make([]*Machine, ranks)
		errs := make([]error, ranks)
		var wg sync.WaitGroup
		for rank := 0; rank < ranks; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				m := New(6, ring.Real{}, WithTransport(&testTransport{router: router, rank: rank}))
				for _, l := range loads {
					m.Put(l.node, l.key, l.val) // dropped unless owned
				}
				ms[rank] = m
				errs[rank] = m.Run(p)
			}(rank)
		}
		wg.Wait()
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("trial %d rank %d: %v", trial, rank, err)
			}
		}
		for _, m := range ms {
			compareMachineOwned(t, ref, m)
		}
		merged := MergeStats(ms[0].Stats(), ms[1].Stats(), ms[2].Stats())
		if !reflect.DeepEqual(ref.Stats(), merged) {
			t.Fatalf("trial %d: merged stats diverge:\n single %+v\n merged %+v", trial, ref.Stats(), merged)
		}
	}
}

// TestPartitionedParityExec is the compiled-engine twin of
// TestPartitionedParityMachine, with 2 lanes to cover multi-value payloads.
func TestPartitionedParityExec(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const ranks, lanes = 3, 2
	for trial := 0; trial < 25; trial++ {
		p, loads := randomPlan(rng, 6, 1+rng.Intn(6), true)
		sp := NewSlotSpace(6)
		for _, l := range loads {
			sp.Slot(l.node, l.key)
		}
		cp, err := CompileInto(sp, p)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		run := func(opts ...Option) (*Exec, error) {
			x := NewExecBatch(sp.Sizes(), lanes, ring.Real{}, opts...)
			for _, l := range loads {
				for lane := 0; lane < lanes; lane++ {
					x.PutLane(sp.Ref(l.node, l.key), lane, l.val+ring.Value(lane))
				}
			}
			return x, x.Run(cp)
		}
		ref, err := run()
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		router := newTestRouter(ranks)
		xs := make([]*Exec, ranks)
		errs := make([]error, ranks)
		var wg sync.WaitGroup
		for rank := 0; rank < ranks; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				xs[rank], errs[rank] = run(WithTransport(&testTransport{router: router, rank: rank}))
			}(rank)
		}
		wg.Wait()
		var stats []Stats
		for rank := 0; rank < ranks; rank++ {
			if errs[rank] != nil {
				t.Fatalf("trial %d rank %d: %v", trial, rank, errs[rank])
			}
			stats = append(stats, xs[rank].Stats())
		}
		sp.EachKey(func(node NodeID, k Key, slot int32) {
			owner := int(node) % ranks
			for lane := 0; lane < lanes; lane++ {
				rv, rok := ref.GetLane(SlotRef{Node: node, Slot: slot}, lane)
				gv, gok := xs[owner].GetLane(SlotRef{Node: node, Slot: slot}, lane)
				if rok != gok || rv != gv {
					t.Errorf("trial %d node %d key %v lane %d: single (%v,%v) vs owner (%v,%v)",
						trial, node, k, lane, rv, rok, gv, gok)
				}
			}
		})
		if merged := MergeStats(stats...); !reflect.DeepEqual(ref.Stats(), merged) {
			t.Fatalf("trial %d: merged stats diverge:\n single %+v\n merged %+v", trial, ref.Stats(), merged)
		}
	}
}

// TestPartitionedFaultIdentity checks that under a shared injector every
// participant aborts with the same typed fault, before any frame is sent —
// the property that keeps a real mesh from stranding peers at the barrier.
func TestPartitionedFaultIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	p, loads := randomPlan(rng, 6, 5, false)
	inj := dropAt{round: 1, ord: 0}
	ref, err := runMap(t, p, loads, ring.Real{}, WithInjector(inj))
	rf, ok := AsFault(err)
	if !ok {
		t.Fatalf("reference run: want fault, got %v", err)
	}
	const ranks = 3
	router := newTestRouter(ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for rank := 0; rank < ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			m := New(6, ring.Real{},
				WithTransport(&testTransport{router: router, rank: rank}),
				WithInjector(inj))
			for _, l := range loads {
				m.Put(l.node, l.key, l.val)
			}
			errs[rank] = m.Run(p)
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		f, ok := AsFault(err)
		if !ok {
			t.Fatalf("rank %d: want fault, got %v", rank, err)
		}
		if *f != *rf {
			t.Errorf("rank %d: fault %+v, reference %+v", rank, *f, *rf)
		}
	}
	_ = ref
}

// dropAt drops the ord-th message of one round (test injector).
type dropAt struct{ round, ord int }

func (d dropAt) Decide(round, ord int, from, to NodeID) FaultKind {
	if round == d.round && ord == d.ord {
		return FaultDrop
	}
	return FaultNone
}

func (d dropAt) Straggles(int, NodeID) bool { return false }
