package service

import (
	"context"
	"time"

	"lbmm/internal/batch"
	"lbmm/internal/core"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/obsv"
)

// lane is one value set on its way through the server: its operands, the
// plan it runs on, and the callback its outcome is handed to. Multiply,
// MultiplySubmit, MultiplyBatch and the coalescer all move lanes, and
// runLanes is the one place lanes execute.
type lane struct {
	prep     *core.Prepared
	fp       string
	hit      bool
	a, b     *matrix.Sparse
	trace    bool
	enqueued time.Time
	deliver  func(*MultiplyResponse, error)
}

// faultRetries is how many times an execution that fails with a typed
// network fault (lbm.ErrFault) is retried before the fault reaches the
// caller. Non-fault errors are never retried.
const faultRetries = 1

// runLanes executes a group of lanes sharing one plan as one batched run
// under the fault policy, then hands every lane its outcome; serve/served
// and serve/errors are counted here, once per lane. An attempt that fails
// with a typed network fault is retried up to faultRetries times on the
// same plan (every faulted attempt counts as serve/faults, every retry as
// serve/retries). Lanes share every round, so a fault fails and retries
// the whole group; a fault that outlasts the retries reaches every lane
// with its provenance intact.
func (s *Server) runLanes(lanes []*lane) {
	as := make([]*matrix.Sparse, len(lanes))
	bs := make([]*matrix.Sparse, len(lanes))
	var opts core.ExecOpts
	for i, ln := range lanes {
		as[i], bs[i] = ln.a, ln.b
		opts.Trace = opts.Trace || ln.trace
	}
	var outs []*matrix.Sparse
	var rep *core.Report
	var err error
	for attempt := 0; ; attempt++ {
		if s.cfg.FaultInjector != nil {
			opts.Injector = s.cfg.FaultInjector(attempt)
		}
		outs, rep, err = lanes[0].prep.MultiplyBatch(as, bs, opts)
		if err == nil || !lbm.IsFault(err) {
			break
		}
		s.metrics.Add(MetricFaults, 1)
		if attempt == faultRetries {
			break
		}
		s.metrics.Add(MetricRetries, 1)
	}
	if err != nil {
		s.metrics.Add(MetricErrors, int64(len(lanes)))
		for _, ln := range lanes {
			ln.deliver(nil, err)
		}
		return
	}
	// The report and profile are shared across the group (it really did
	// execute once); they are read-only after delivery.
	var profile *obsv.Export
	if rep.Profile != nil {
		profile = rep.Profile.Export()
	}
	s.metrics.Add(MetricServed, int64(len(lanes)))
	for i, ln := range lanes {
		resp := &MultiplyResponse{X: outs[i], Report: rep, Fingerprint: ln.fp, CacheHit: ln.hit}
		if ln.trace {
			resp.Profile = profile
		}
		ln.deliver(resp, nil)
	}
}

// runBatch executes one launched group on a single worker slot. It is the
// coalescer's run callback and always runs on its own goroutine.
func (s *Server) runBatch(fp string, lanes []*lane, why batch.Reason) {
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
	s.runLanes(lanes)
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
// request, holds one worker slot, and runs as one group of lanes like a
// coalesced batch.
func (s *Server) MultiplyBatch(ctx context.Context, req *MultiplyBatchRequest) (*MultiplyBatchResponse, error) {
	plan, release, err := s.begin(ctx, req.Lanes, req.Xhat, req.Options)
	if err != nil {
		return nil, err
	}
	defer release()
	resp := &MultiplyBatchResponse{X: make([]*matrix.Sparse, len(req.Lanes)), Fingerprint: plan.fp, CacheHit: plan.hit}
	lanes := make([]*lane, len(req.Lanes))
	for l, v := range req.Lanes {
		ln := plan
		ln.a, ln.b, ln.trace = v.A, v.B, req.Trace
		ln.deliver = func(out *MultiplyResponse, laneErr error) {
			if laneErr != nil {
				err = laneErr
				return
			}
			resp.X[l], resp.Report, resp.Profile = out.X, out.Report, out.Profile
		}
		lanes[l] = &ln
	}
	s.batchHist.Observe(int64(len(lanes)))
	s.runLanes(lanes)
	if err != nil {
		return nil, err
	}
	return resp, nil
}
