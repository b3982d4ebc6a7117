package service

import (
	"context"
	"errors"
	"net/http"

	"lbmm/internal/core"
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
// layer both parse through it. Errors are the caller's fault (map to
// ErrInvalid semantics).
func ParseWireMultiply(wm *WireMultiply) (*MultiplyRequest, error) {
	ringSR, err := resolveRing(wm.Ring)
	if err != nil {
		return nil, err
	}
	a, err := buildSparse(wm.N, ringSR, wm.A, "a")
	if err != nil {
		return nil, err
	}
	b, err := buildSparse(wm.N, ringSR, wm.B, "b")
	if err != nil {
		return nil, err
	}
	xhat, err := buildSupport(wm.N, wm.Xhat, "xhat")
	if err != nil {
		return nil, err
	}
	return &MultiplyRequest{
		A: a, B: b, Xhat: xhat,
		Options: core.Options{Ring: ringSR, D: wm.D, Algorithm: wm.Algorithm},
		Trace:   wm.Trace,
	}, nil
}

// WireEntries flattens a sparse matrix to wire cells.
func WireEntries(m *matrix.Sparse) []WireEntry { return sparseEntries(m) }

// BuildWireReport assembles a response's report block.
func BuildWireReport(resp *MultiplyResponse) WireReport {
	return multiplyReportWire(resp.Report, resp.Fingerprint, resp.CacheHit, resp.Profile)
}

// ErrStatus maps a serving-layer error to its HTTP status code — the same
// taxonomy writeServeErr applies to the scalar endpoints, exported so other
// transports report identical codes.
func ErrStatus(err error) int {
	switch {
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
