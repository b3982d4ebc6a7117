package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"lbmm/internal/batch"
	"lbmm/internal/core"
	"lbmm/internal/matrix"
	"lbmm/internal/obsv"
)

// batchLane is one request parked in the coalescer: its values, what it
// asked for, and how its outcome goes back. A synchronous caller
// (multiplyCoalesced) waits on done (buffered so the batch runner never
// blocks on a caller that already gave up); a streamed lane carries a
// deliver callback instead — no goroutine parks for it, the batch runner
// invokes deliver with the finished response.
type batchLane struct {
	prep     *core.Prepared
	a, b     *matrix.Sparse
	trace    bool
	enqueued time.Time
	done     chan laneOut
	fp       string
	hit      bool
	deliver  func(*MultiplyResponse, error)
}

// laneOut is one lane's share of a batch outcome. rep and profile are
// shared across the batch's lanes (the batch really did execute once);
// they are read-only after fan-out.
type laneOut struct {
	x       *matrix.Sparse
	rep     *core.Report
	profile *obsv.Export
	err     error
}

// multiplyCoalesced is Multiply's batched tail: park the request in the
// coalescer keyed by its plan fingerprint and wait for the batch outcome.
// The caller's worker slot is released while parked — the launched batch
// takes one slot for the whole group in runBatch, so k coalesced lanes
// cost one worker, not k.
func (s *Server) multiplyCoalesced(ctx context.Context, req *MultiplyRequest, prep *core.Prepared, fp string, hit bool, release func()) (*MultiplyResponse, error) {
	lane := &batchLane{
		prep:     prep,
		a:        req.A,
		b:        req.B,
		trace:    req.Trace,
		enqueued: time.Now(),
		done:     make(chan laneOut, 1),
	}
	err := s.coal.Submit(fp, lane)
	release()
	if err != nil {
		// Only Close makes Submit fail: the server is draining, which to the
		// caller is indistinguishable from load shedding.
		s.metrics.Add(MetricShed, 1)
		return nil, ErrOverloaded
	}
	if _, has := ctx.Deadline(); !has {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Deadline)
		defer cancel()
	}
	select {
	case out := <-lane.done:
		if out.err != nil {
			s.metrics.Add(MetricErrors, 1)
			return nil, out.err
		}
		resp := &MultiplyResponse{X: out.x, Report: out.rep, Fingerprint: fp, CacheHit: hit}
		if req.Trace {
			resp.Profile = out.profile
		}
		s.metrics.Add(MetricServed, 1)
		return resp, nil
	case <-ctx.Done():
		// The batch still runs and fans out to the buffered channel; this
		// caller just stops waiting.
		if errors.Is(ctx.Err(), context.Canceled) {
			s.metrics.Add(MetricCanceled, 1)
		} else {
			s.metrics.Add(MetricDeadlineExceeded, 1)
		}
		return nil, ctx.Err()
	}
}

// runBatch executes one launched group: take a single worker slot, run the
// lanes as one batched multiply under the fault policy, fan the outcome to
// every lane. It is the coalescer's run callback and always runs on its
// own goroutine.
func (s *Server) runBatch(fp string, lanes []*batchLane, why batch.Reason) {
	now := time.Now()
	for _, ln := range lanes {
		s.metrics.Add(MetricBatchWaitNs, now.Sub(ln.enqueued).Nanoseconds())
	}
	s.metrics.Add(MetricBatchLaunch+string(why), 1)
	if s.ctrl != nil {
		s.ctrl.Observe(fp, len(lanes), why)
	}
	s.workers <- struct{}{}
	s.metrics.Set(MetricActiveWorkers, s.active.Add(1))
	defer s.release()
	s.batchHist.Observe(int64(len(lanes)))
	s.metrics.Set(MetricBatchLanes, s.laneCount.Add(int64(len(lanes))))
	defer func() {
		s.metrics.Set(MetricBatchLanes, s.laneCount.Add(-int64(len(lanes))))
	}()

	trace := false
	as := make([]*matrix.Sparse, len(lanes))
	bs := make([]*matrix.Sparse, len(lanes))
	for i, ln := range lanes {
		as[i], bs[i] = ln.a, ln.b
		trace = trace || ln.trace
	}
	// Lanes coalesced on one fingerprint share the structure, so any lane's
	// prepared plan serves the whole group.
	outs, rep, err := s.executeBatch(lanes[0].prep, as, bs, trace)
	if err != nil {
		for _, ln := range lanes {
			if ln.deliver != nil {
				s.metrics.Add(MetricErrors, 1)
				ln.deliver(nil, err)
				continue
			}
			ln.done <- laneOut{err: err}
		}
		return
	}
	var exp *obsv.Export
	if rep.Profile != nil {
		exp = rep.Profile.Export()
	}
	for i, ln := range lanes {
		out := laneOut{x: outs[i], rep: rep}
		if ln.trace {
			out.profile = exp
		}
		if ln.deliver != nil {
			resp := &MultiplyResponse{X: out.x, Report: out.rep, Fingerprint: ln.fp, CacheHit: ln.hit}
			if ln.trace {
				resp.Profile = out.profile
			}
			s.metrics.Add(MetricServed, 1)
			ln.deliver(resp, nil)
			continue
		}
		ln.done <- out
	}
}

// BatchLane is one value set of an explicit batched multiply.
type BatchLane struct {
	A, B *matrix.Sparse
}

// MultiplyBatchRequest is an explicit batched multiplication: k value sets
// over one shared sparsity structure, executed as a single batched run
// (no coalescing delay — the caller already assembled the batch).
type MultiplyBatchRequest struct {
	Lanes []BatchLane
	Xhat  *matrix.Support
	// Options select the plan as in core.Prepare.
	Options core.Options
	// Trace records the batch's execution profile into the response.
	Trace bool
}

// MultiplyBatchResponse carries the per-lane products and the shared batch
// report (Report.Lanes = k; Stats are per-batch, not per-lane).
type MultiplyBatchResponse struct {
	X           []*matrix.Sparse
	Report      *core.Report
	Fingerprint string
	CacheHit    bool
	Profile     *obsv.Export
}

// MultiplyBatch serves an explicit batch: every lane must share lane 0's
// sparsity structure (same plan fingerprint); the group is admitted as one
// request, holds one worker slot, and goes through the same fault policy
// as coalesced batches.
func (s *Server) MultiplyBatch(ctx context.Context, req *MultiplyBatchRequest) (*MultiplyBatchResponse, error) {
	if len(req.Lanes) == 0 || req.Xhat == nil {
		return nil, fmt.Errorf("%w: batch multiply needs lanes and Xhat", ErrInvalid)
	}
	var fp0 string
	for l, lane := range req.Lanes {
		if lane.A == nil || lane.B == nil {
			return nil, fmt.Errorf("%w: lane %d: missing A or B", ErrInvalid, l)
		}
		if n := lane.A.Support().N; n != lane.B.Support().N || n != req.Xhat.N {
			return nil, fmt.Errorf("%w: lane %d: dimension mismatch %d/%d/%d",
				ErrInvalid, l, n, lane.B.Support().N, req.Xhat.N)
		}
		fp, err := core.Fingerprint(lane.A.Support(), lane.B.Support(), req.Xhat, req.Options)
		if err != nil {
			return nil, fmt.Errorf("%w: lane %d: %v", ErrInvalid, l, err)
		}
		if l == 0 {
			fp0 = fp
		} else if fp != fp0 {
			return nil, fmt.Errorf("%w: lane %d: structure differs from lane 0 (batched lanes must share one plan)",
				ErrInvalid, l)
		}
	}
	release, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	prep, fp, hit, err := s.prepared(req.Lanes[0].A.Support(), req.Lanes[0].B.Support(), req.Xhat, req.Options)
	if err != nil {
		s.metrics.Add(MetricErrors, 1)
		return nil, err
	}
	as := make([]*matrix.Sparse, len(req.Lanes))
	bs := make([]*matrix.Sparse, len(req.Lanes))
	for i, lane := range req.Lanes {
		as[i], bs[i] = lane.A, lane.B
	}
	s.batchHist.Observe(int64(len(req.Lanes)))
	outs, rep, err := s.executeBatch(prep, as, bs, req.Trace)
	if err != nil {
		s.metrics.Add(MetricErrors, 1)
		return nil, err
	}
	resp := &MultiplyBatchResponse{X: outs, Report: rep, Fingerprint: fp, CacheHit: hit}
	if req.Trace && rep.Profile != nil {
		resp.Profile = rep.Profile.Export()
	}
	s.metrics.Add(MetricServed, 1)
	return resp, nil
}
