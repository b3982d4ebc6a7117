package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"lbmm/internal/matrix"
)

// Exported wire vocabulary for other transports (internal/stream speaks the
// same payload schema as POST /v1/multiply, framed differently). The aliases
// keep the JSON shape defined in one place.
type (
	// WireEntry is one value cell [i, j, value].
	WireEntry = wireEntry
	// WirePos is one support position [i, j].
	WirePos = wirePos
	// WireMultiply is the multiply payload: the body of POST /v1/multiply
	// and the "submit" payload of a lbmm.stream.v1 frame.
	WireMultiply = wireMultiplyRequest
	// WireReport is the how-it-was-served block of a multiply response.
	WireReport = wireMultiplyReport
)

// ParseWireMultiply builds the in-memory request from its wire payload,
// validating dimension bounds and indices. POST /v1/multiply and the stream
// layer both parse through it. Every error wraps ErrInvalid: it is the
// caller's fault.
func ParseWireMultiply(wm *WireMultiply) (*MultiplyRequest, error) {
	opts, err := wireOptions(wm.Ring, wm.Algorithm, wm.D)
	if err != nil {
		return nil, err
	}
	a, err := buildSparse(wm.N, opts.Ring, wm.A, "a")
	if err != nil {
		return nil, err
	}
	b, err := buildSparse(wm.N, opts.Ring, wm.B, "b")
	if err != nil {
		return nil, err
	}
	xhat, err := buildSupport(wm.N, wm.Xhat, "xhat")
	if err != nil {
		return nil, err
	}
	return &MultiplyRequest{A: a, B: b, Xhat: xhat, Options: opts, Trace: wm.Trace}, nil
}

// parseWireBatch is ParseWireMultiply for POST /v1/multiply/batch.
func parseWireBatch(wb *wireMultiplyBatchRequest) (*MultiplyBatchRequest, error) {
	opts, err := wireOptions(wb.Ring, wb.Algorithm, wb.D)
	if err != nil {
		return nil, err
	}
	lanes := make([]BatchLane, len(wb.Lanes))
	for l, wl := range wb.Lanes {
		if lanes[l].A, err = buildSparse(wb.N, opts.Ring, wl.A, fmt.Sprintf("lanes[%d].a", l)); err != nil {
			return nil, err
		}
		if lanes[l].B, err = buildSparse(wb.N, opts.Ring, wl.B, fmt.Sprintf("lanes[%d].b", l)); err != nil {
			return nil, err
		}
	}
	xhat, err := buildSupport(wb.N, wb.Xhat, "xhat")
	if err != nil {
		return nil, err
	}
	return &MultiplyBatchRequest{Lanes: lanes, Xhat: xhat, Options: opts, Trace: wb.Trace}, nil
}

// WireEntries flattens a sparse matrix to wire cells.
func WireEntries(m *matrix.Sparse) []WireEntry { return sparseEntries(m) }

// BuildWireReport assembles a response's report block.
func BuildWireReport(resp *MultiplyResponse) WireReport {
	return multiplyReportWire(resp.Report, resp.Fingerprint, resp.CacheHit, resp.Profile)
}

// ErrStatus maps a serving-layer error to its HTTP status code — the error
// taxonomy of docs/SERVICE.md, shared by every handler, the shard router
// and the stream layer so all transports report identical codes: a body
// over MaxBodyBytes is 413, an invalid request 400 (retrying unchanged
// cannot succeed), load shedding 503 (retryable), deadline expiry 504,
// caller cancellation 499, and a network fault that survived the retry
// policy — or anything else — 500.
func ErrStatus(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}
