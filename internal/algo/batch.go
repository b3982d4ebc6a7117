package algo

import (
	"fmt"

	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
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
	var outs []*matrix.Sparse
	var res *Result
	if e == EngineCompiled && p.compiled != nil {
		var err error
		if outs, res, err = p.walk(as, bs, mopts...); err != nil {
			return nil, nil, err
		}
	} else {
		outs = make([]*matrix.Sparse, len(as))
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
	}
	res.Lanes = len(as)
	return outs, res, nil
}
