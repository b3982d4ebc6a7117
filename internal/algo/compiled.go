package algo

import (
	"fmt"
	"sync"

	"lbmm/internal/cluster"
	"lbmm/internal/fewtri"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
)

// Engine selects the execution engine of a prepared multiplication.
type Engine string

const (
	// EngineCompiled runs the slot-addressed compiled form (the default):
	// value loading, every communication phase, the local products and the
	// output collection all resolve to dense arena slots computed at Prepare
	// time.
	EngineCompiled Engine = "compiled"
	// EngineMap runs the reference map-backed Machine — the differential
	// oracle the compiled engine is tested against.
	EngineMap Engine = "map"
)

// loadRef binds one matrix position (i, j) to its arena slot.
type loadRef struct {
	i, j int32
	ref  lbm.SlotRef
}

// compiledPrepared is the compiled twin of a Prepared: the whole pipeline
// — input loading, phase-1 batches, the staging sweep, the Lemma 3.1 job
// and output collection — lowered against one shared SlotSpace, so Multiply
// is a pure array program. Executors are recycled through a pool; in steady
// state a multiplication allocates no store memory at all.
type compiledPrepared struct {
	sizes        []int32
	loadA, loadB []loadRef
	// x holds the output slots in Xhat row order: zero-initialized before
	// the run, collected after it.
	x            []loadRef
	phase1       []*cluster.CompiledBatch
	stagingClear []lbm.SlotRef
	few          *fewtri.CompiledJob
	bytes        int64
	r            ring.Semiring
	// lanePools holds one executor pool per lane count: arenas are sized
	// slots×lanes, so executors only recycle within their own lane count.
	// Key int → value *sync.Pool of *lbm.Exec.
	lanePools sync.Map
}

// execFor returns a pooled executor carrying the given lane count, plus the
// pool to return it to after Reset.
func (cp *compiledPrepared) execFor(lanes int) (*lbm.Exec, *sync.Pool) {
	pi, ok := cp.lanePools.Load(lanes)
	if !ok {
		sizes, r := cp.sizes, cp.r
		pi, _ = cp.lanePools.LoadOrStore(lanes, &sync.Pool{
			New: func() any { return lbm.NewExecBatch(sizes, lanes, r) },
		})
	}
	pool := pi.(*sync.Pool)
	return pool.Get().(*lbm.Exec), pool
}

// compilePrepared lowers a Prepared into its compiled twin. The lowering
// order mirrors execution order, so the occupancy analysis sees keys in the
// same sequence the map engine would create them.
func compilePrepared(p *Prepared) (*compiledPrepared, error) {
	sp := lbm.NewSlotSpace(p.Inst.N)
	cp := &compiledPrepared{}
	for i, row := range p.Inst.Ahat.Rows {
		for _, j := range row {
			cp.loadA = append(cp.loadA, loadRef{i: int32(i), j: j,
				ref: sp.Ref(p.Layout.OwnerA(int32(i), j), lbm.AKey(int32(i), j))})
		}
	}
	for j, row := range p.Inst.Bhat.Rows {
		for _, k := range row {
			cp.loadB = append(cp.loadB, loadRef{i: int32(j), j: k,
				ref: sp.Ref(p.Layout.OwnerB(int32(j), k), lbm.BKey(int32(j), k))})
		}
	}
	for i, row := range p.Inst.Xhat.Rows {
		for _, k := range row {
			cp.x = append(cp.x, loadRef{i: int32(i), j: k,
				ref: sp.Ref(p.Layout.OwnerX(int32(i), k), lbm.XKey(int32(i), k))})
		}
	}
	for _, pb := range p.phase1 {
		cb, err := pb.Compile(sp)
		if err != nil {
			return nil, err
		}
		cp.phase1 = append(cp.phase1, cb)
	}
	// The staging sweep: every vnet staging key the phase-1 plans can have
	// created is known now (fewtri routes with plain keys only), so snapshot
	// their slots — clearing an absent slot is a no-op, exactly like
	// vnet.CleanupStaging deleting only present keys.
	sp.EachKey(func(node lbm.NodeID, k lbm.Key, slot int32) {
		if k.Kind == lbm.KStage {
			cp.stagingClear = append(cp.stagingClear, lbm.SlotRef{Node: node, Slot: slot})
		}
	})
	few, err := fewtri.Compile(sp, p.fewtri)
	if err != nil {
		return nil, err
	}
	cp.few = few
	cp.sizes = sp.Sizes()
	cp.finish(p.R)
	return cp, nil
}

// finish completes a compiled form whose instruction state is in place —
// whether freshly lowered or decoded from a serialized snapshot: it prices
// the resident size and binds the ring the executor pools build arenas for.
func (cp *compiledPrepared) finish(r ring.Semiring) {
	cp.bytes = int64(len(cp.loadA)+len(cp.loadB)+len(cp.x)) * 16
	cp.bytes += int64(len(cp.stagingClear)) * 8
	for _, cb := range cp.phase1 {
		cp.bytes += cb.MemoryBytes()
	}
	cp.bytes += cp.few.MemoryBytes()
	for _, sz := range cp.sizes {
		cp.bytes += int64(sz) * 12 // arena value + epoch stamp
	}
	cp.r = r
}

// CompiledBytes reports the estimated resident size of the compiled form
// (instruction streams, slot tables and one executor's arenas). Serving
// caches use it as the memory cost of a cached Prepared.
func (p *Prepared) CompiledBytes() int64 {
	if p.compiled == nil {
		return 0
	}
	return p.compiled.bytes
}

// NodeLoads returns the per-node real-message loads of the prepared
// multiplication's compiled pipeline: send[v] and recv[v] are exactly the
// Stats.SendLoad[v]/RecvLoad[v] any execution of this structure will charge
// — rounds are a function of the structure only, so the loads are a
// compile-time property and need no execution. The load-aware partition
// balancer (internal/dist) consumes them. Returns nils when no compiled
// form exists (map-only algorithms).
func (p *Prepared) NodeLoads() (send, recv []int64) {
	cp := p.compiled
	if cp == nil {
		return nil, nil
	}
	send = make([]int64, p.Inst.N)
	recv = make([]int64, p.Inst.N)
	for _, cb := range cp.phase1 {
		cb.AddNodeLoads(send, recv)
	}
	cp.few.AddNodeLoads(send, recv)
	return send, recv
}

// walk runs the compiled engine: one executor whose arenas carry one lane
// per value set, loaded slot by slot and walked once, so every instruction
// pays its presence check, decode and stats update once for all lanes. A
// scalar multiply is the one-lane walk. The Result leaves Lanes to the
// caller.
func (p *Prepared) walk(as, bs []*matrix.Sparse, mopts ...lbm.Option) ([]*matrix.Sparse, *Result, error) {
	cp := p.compiled
	K := len(as)
	x, pool := cp.execFor(K)
	x.Configure(mopts...)
	defer func() {
		x.Reset()
		pool.Put(x)
	}()
	zero := p.R.Zero()
	load(x, cp.loadA, as, zero)
	load(x, cp.loadB, bs, zero)
	for _, lr := range cp.x {
		dst := x.FillLanes(lr.ref)
		for l := range dst {
			dst[l] = zero
		}
	}
	for _, cb := range cp.phase1 {
		if err := cb.Run(x); err != nil {
			return nil, nil, err
		}
	}
	for _, ref := range cp.stagingClear {
		x.ClearSlot(ref)
	}
	phase1 := x.Rounds()
	if err := fewtri.RunCompiled(x, cp.few); err != nil {
		return nil, nil, err
	}
	outs := make([]*matrix.Sparse, K)
	for l := range outs {
		outs[l] = matrix.NewSparse(p.Inst.Xhat.N, p.R)
	}
	for _, lr := range cp.x {
		if !x.Owns(lr.ref.Node) {
			// A partitioned run collects each output at the participant that
			// owns it; the coordinator merges the disjoint partials.
			continue
		}
		if _, ok := x.GetLane(lr.ref, 0); !ok {
			return nil, nil, fmt.Errorf("lbm: owner of X(%d,%d) never received it", lr.i, lr.j)
		}
		// cp.x is row-major sorted, so appending keeps the row invariant;
		// ring zeros are skipped exactly as Sparse.Set drops them.
		for l, v := range x.MustLanes(lr.ref) {
			if p.R.Eq(v, zero) {
				continue
			}
			outs[l].Rows[lr.i] = append(outs[l].Rows[lr.i], matrix.Cell{Col: lr.j, Val: v})
		}
	}
	res := p.meta
	res.Engine = string(EngineCompiled)
	res.Stats = x.Stats()
	res.Rounds = res.Stats.Rounds
	res.Phase1Rounds = phase1
	res.Phase2Rounds = res.Rounds - phase1
	res.Profile = x.Profile()
	if tr := x.Trace(); tr != nil {
		res.Timeline = tr.Timeline()
	}
	return outs, &res, nil
}

// load writes one operand's lanes into its slots, slot by slot. The refs
// are in row-major order and within() pinned every lane's entries inside
// the support, so one cursor per lane merge-walks each row; support
// positions a lane leaves absent load as the ring zero.
func load(x *lbm.Exec, refs []loadRef, ms []*matrix.Sparse, zero ring.Value) {
	cur := make([][]matrix.Cell, len(ms)) // per lane: the row's cells not yet loaded
	skip := make([]ring.Value, len(ms))   // sink for slots another participant owns
	row := int32(-1)
	for _, lr := range refs {
		if lr.i != row {
			row = lr.i
			for l, m := range ms {
				cur[l] = m.Rows[row]
			}
		}
		dst := x.FillLanes(lr.ref)
		if dst == nil {
			dst = skip
		}
		for l, cells := range cur {
			if len(cells) > 0 && cells[0].Col == lr.j {
				dst[l], cur[l] = cells[0].Val, cells[1:]
			} else {
				dst[l] = zero
			}
		}
	}
}
