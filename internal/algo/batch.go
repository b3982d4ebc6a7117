package algo

import (
	"fmt"

	"lbmm/internal/fewtri"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
)

// MultiplyBatch runs the prepared plans on k value sets at once. Every lane
// must realize (a subset of) the prepared supports — same contract as
// Multiply — and the lanes share one instruction-stream walk on the
// compiled engine: the batch pays one presence check, one decode and one
// stats update per instruction regardless of k, which is where the batching
// throughput win lives. Outputs come back lane for lane: outs[l] is
// as[l]·bs[l].
//
// The returned Result describes the whole batch (Lanes = k); Stats and
// Rounds are per-batch, not per-lane, because the batch really did execute
// one round sequence.
func (p *Prepared) MultiplyBatch(as, bs []*matrix.Sparse) ([]*matrix.Sparse, *Result, error) {
	return p.MultiplyBatchWith(as, bs)
}

// MultiplyBatchWith is MultiplyBatch with per-call machine options — the
// serving layer's entry point for batch tracing and fault injection. A
// fault fails the whole batch: lanes share every round, so there is no
// per-lane partial success.
func (p *Prepared) MultiplyBatchWith(as, bs []*matrix.Sparse, mopts ...lbm.Option) ([]*matrix.Sparse, *Result, error) {
	return p.MultiplyBatchOn(p.engine(), as, bs, mopts...)
}

// MultiplyBatchOn is MultiplyBatchWith on an explicit engine. The map
// engine runs k independent multiplies — definitionally the oracle the
// compiled lane-strided walk is differentially tested against — so the two
// engines return identical lane outputs.
func (p *Prepared) MultiplyBatchOn(e Engine, as, bs []*matrix.Sparse, mopts ...lbm.Option) ([]*matrix.Sparse, *Result, error) {
	if len(as) == 0 {
		return nil, nil, fmt.Errorf("algo: empty batch")
	}
	if len(as) != len(bs) {
		return nil, nil, fmt.Errorf("algo: batch lanes mismatched: %d A values vs %d B values", len(as), len(bs))
	}
	for l := range as {
		if err := within(as[l], p.Inst.Ahat); err != nil {
			return nil, nil, fmt.Errorf("algo: lane %d: A %w", l, err)
		}
		if err := within(bs[l], p.Inst.Bhat); err != nil {
			return nil, nil, fmt.Errorf("algo: lane %d: B %w", l, err)
		}
	}
	if e == EngineCompiled && p.compiled != nil {
		return p.multiplyCompiledBatch(as, bs, mopts...)
	}
	outs := make([]*matrix.Sparse, len(as))
	var res *Result
	for l := range as {
		out, r, err := p.MultiplyOn(EngineMap, as[l], bs[l], mopts...)
		if err != nil {
			return nil, nil, fmt.Errorf("lane %d: %w", l, err)
		}
		outs[l] = out
		if res == nil {
			res = r
		}
	}
	res.Lanes = len(as)
	return outs, res, nil
}

// multiplyCompiledBatch is the lane-strided compiled path: one executor
// whose arenas carry k lanes per slot, loaded lane by lane and walked once.
func (p *Prepared) multiplyCompiledBatch(as, bs []*matrix.Sparse, mopts ...lbm.Option) ([]*matrix.Sparse, *Result, error) {
	cp := p.compiled
	K := len(as)
	x, pool := cp.execFor(K)
	x.Configure(mopts...)
	defer func() {
		x.Reset()
		pool.Put(x)
	}()
	// Load refs are in row-major sorted order (compilePrepared walks the
	// support rows), and within() pinned every lane's entries inside the
	// support — so one cursor per lane merge-walks the sorted rows instead
	// of binary-searching every position, and PutLanes writes each slot's
	// lanes contiguously.
	zero := p.R.Zero()
	buf := make([]ring.Value, K)
	rows := make([][]matrix.Cell, K)
	pos := make([]int, K)
	load := func(refs []loadRef, ms []*matrix.Sparse) {
		row := int32(-1)
		for _, lr := range refs {
			if lr.i != row {
				row = lr.i
				for l, m := range ms {
					rows[l] = m.Rows[row]
					pos[l] = 0
				}
			}
			for l := 0; l < K; l++ {
				cells, k := rows[l], pos[l]
				for k < len(cells) && cells[k].Col < lr.j {
					k++
				}
				if k < len(cells) && cells[k].Col == lr.j {
					buf[l] = cells[k].Val
					k++
				} else {
					buf[l] = zero
				}
				pos[l] = k
			}
			x.PutLanes(lr.ref, buf)
		}
	}
	load(cp.loadA, as)
	load(cp.loadB, bs)
	for l := range buf {
		buf[l] = zero
	}
	for _, lr := range cp.x {
		x.PutLanes(lr.ref, buf)
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
		vs := x.MustLanes(lr.ref)
		// cp.x is row-major sorted, so appending keeps the row invariant;
		// ring zeros are skipped exactly as Sparse.Set drops them.
		for l := 0; l < K; l++ {
			if p.R.Eq(vs[l], zero) {
				continue
			}
			outs[l].Rows[lr.i] = append(outs[l].Rows[lr.i], matrix.Cell{Col: lr.j, Val: vs[l]})
		}
	}
	res := p.meta
	res.Engine = string(EngineCompiled)
	res.Lanes = K
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
