package service

import (
	"context"
	"fmt"
	"time"

	"lbmm/internal/core"
	"lbmm/internal/matrix"
)

// MultiplySubmit is the streaming entry point and the front of every
// scalar multiply: it validates, admits and plan-resolves the request, but
// instead of parking the calling goroutine until the result is ready it
// registers deliver to be invoked exactly once with the outcome and
// returns. A non-nil return error means the request was rejected
// synchronously (validation, admission or plan failure) and deliver will
// never be called.
//
// deliver runs on the batch runner's goroutine (or, without a coalescer, on
// the execution goroutine): it must not block for long — the streaming
// session hands it a bounded outbox sized so that enqueueing a result can
// never stall a worker.
//
// Backpressure: Submit blocks in admission control — the caller's read
// loop stalls when every worker slot is busy and the queue is full of
// waiters, which is the natural pipelining limit. The slot is released as
// soon as the lane is parked (batched mode) or execution ends (unbatched
// mode); k coalesced lanes still cost one worker.
func (s *Server) MultiplySubmit(ctx context.Context, req *MultiplyRequest, deliver func(*MultiplyResponse, error)) error {
	if deliver == nil {
		return fmt.Errorf("%w: submit needs a deliver callback", ErrInvalid)
	}
	ln, release, err := s.begin(ctx, []BatchLane{{A: req.A, B: req.B}}, req.Xhat, req.Options)
	if err != nil {
		return err
	}
	ln.a, ln.b, ln.trace, ln.deliver = req.A, req.B, req.Trace, deliver
	if s.coal == nil {
		// No coalescer: the lane runs alone on a fresh goroutine holding the
		// admitted slot. The goroutine is doing the multiply, not parked
		// waiting on one — the caller stays free to pipeline the next submit.
		go func() {
			defer release()
			s.runLanes([]*lane{&ln})
		}()
		return nil
	}
	// The slot is released while the lane is parked: the launched batch
	// takes one slot for its whole group in runBatch.
	ln.enqueued = time.Now()
	err = s.coal.Submit(ln.fp, &ln)
	release()
	if err != nil {
		// Only Close makes Submit fail: the server is draining, which to the
		// caller is indistinguishable from load shedding.
		s.metrics.Add(MetricShed, 1)
		return ErrOverloaded
	}
	return nil
}

// begin is the common front of every multiply. It validates the value sets
// before admission, so a malformed request touches nothing; admits the
// request; and resolves its plan from lane 0's structure, building each
// operand's support once and computing one fingerprint per request. Every
// later lane must realize exactly lane 0's structure. The returned lane
// carries the plan for the caller to fill in with values and a deliver
// callback. On success release must be called once the request gives up
// its worker slot.
func (s *Server) begin(ctx context.Context, vals []BatchLane, xhat *matrix.Support, opts core.Options) (lane, func(), error) {
	if len(vals) == 0 || xhat == nil {
		return lane{}, nil, fmt.Errorf("%w: multiply needs A, B and Xhat", ErrInvalid)
	}
	for l, v := range vals {
		var why string
		switch {
		case v.A == nil || v.B == nil:
			why = "multiply needs A, B and Xhat"
		case v.A.N != v.B.N || v.A.N != xhat.N:
			why = fmt.Sprintf("dimension mismatch %d/%d/%d", v.A.N, v.B.N, xhat.N)
		case l > 0 && !(matrix.SameStructure(v.A, vals[0].A) && matrix.SameStructure(v.B, vals[0].B)):
			why = "structure differs from lane 0 (batched lanes must share one plan)"
		default:
			continue
		}
		if len(vals) > 1 {
			return lane{}, nil, fmt.Errorf("%w: lane %d: %s", ErrInvalid, l, why)
		}
		return lane{}, nil, fmt.Errorf("%w: %s", ErrInvalid, why)
	}
	release, err := s.admit(ctx)
	if err != nil {
		return lane{}, nil, err
	}
	prep, fp, hit, err := s.prepared(vals[0].A.Support(), vals[0].B.Support(), xhat, opts)
	if err != nil {
		release()
		s.metrics.Add(MetricErrors, 1)
		return lane{}, nil, err
	}
	return lane{prep: prep, fp: fp, hit: hit}, release, nil
}
