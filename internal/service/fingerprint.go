package service

import (
	"bytes"
	"errors"
	"fmt"

	"lbmm/internal/core"
	"lbmm/internal/matrix"
)

// ErrBadRequest marks a fingerprinting failure caused by the request
// itself — malformed or truncated JSON, invalid entries, a missing lane, an
// unknown ring, or a path without a fingerprint schema. Routers test for it
// with errors.Is and fall through to local handling, where the HTTP layer
// produces its canonical 400; a fingerprint is never computed from a body
// that failed to validate, so a damaged request cannot route to the wrong
// shard.
var ErrBadRequest = errors.New("service: unfingerprintable request")

// RequestFingerprint computes the plan fingerprint a server would use for
// the body of a serving-API request, without compiling anything. This is
// what the shard tier routes by: a front-end only needs the sparsity
// structure, the ring, the algorithm and d to know which shard owns the
// plan. A value-carrying body is parsed exactly as the server parses it
// (ParseWireMultiply) and keyed from the supports of the built operands, so
// the router and the server cannot disagree on which bodies are valid or
// what their structure is.
//
// path selects the wire schema: "/v1/multiply", "/v1/multiply/batch"
// (fingerprinted by lane 0 — the handler enforces that all lanes share it)
// or "/v1/prepare". Bodies that fail to decode or validate return an error;
// routers should fall through to local handling, where the HTTP layer
// produces its usual 400.
func RequestFingerprint(path string, body []byte) (fp string, err error) {
	// Every failure is the request's fault: tag the whole surface so a
	// router's errors.Is check can't miss a path.
	defer func() {
		if err != nil && !errors.Is(err, ErrBadRequest) {
			err = fmt.Errorf("%w: %w", ErrBadRequest, err)
		}
	}()
	switch path {
	case "/v1/multiply":
		var req wireMultiplyRequest
		if err := decodeJSON(bytes.NewReader(body), &req); err != nil {
			return "", err
		}
		return multiplyFingerprint(&req)
	case "/v1/multiply/batch":
		var req wireMultiplyBatchRequest
		if err := decodeJSON(bytes.NewReader(body), &req); err != nil {
			return "", err
		}
		if len(req.Lanes) == 0 {
			return "", fmt.Errorf("batch multiply needs lanes")
		}
		return multiplyFingerprint(&wireMultiplyRequest{
			N: req.N, Ring: req.Ring, Algorithm: req.Algorithm, D: req.D,
			A: req.Lanes[0].A, B: req.Lanes[0].B, Xhat: req.Xhat,
		})
	case "/v1/prepare":
		var req wirePrepareRequest
		if err := decodeJSON(bytes.NewReader(body), &req); err != nil {
			return "", err
		}
		opts, err := wireOptions(req.Ring, req.Algorithm, req.D)
		if err != nil {
			return "", err
		}
		supports, err := buildSupports(req.N, req.Ahat, req.Bhat, req.Xhat)
		if err != nil {
			return "", err
		}
		fp, _, err := planKey(supports[0], supports[1], supports[2], opts)
		return fp, err
	}
	return "", fmt.Errorf("no fingerprint for path %q", path)
}

// multiplyFingerprint is the plan key of a multiply payload: the payload
// parsed as the server parses it, keyed from its operands' supports.
func multiplyFingerprint(wm *wireMultiplyRequest) (string, error) {
	req, err := ParseWireMultiply(wm)
	if err != nil {
		return "", err
	}
	fp, _, err := planKey(req.A.Support(), req.B.Support(), req.Xhat, req.Options)
	return fp, err
}

// planKey is the plan cache key of a structure, and the options reduced to
// what identifies a plan: the ring, the algorithm and d. The execution
// engine never enters either, so a cached plan cannot inherit an engine
// override from whichever request compiled it first. Server.prepared and
// RequestFingerprint both key through here, so a router and the server it
// routes to cannot compute different keys for one request.
func planKey(ahat, bhat, xhat *matrix.Support, opts core.Options) (string, core.Options, error) {
	opts = core.Options{Ring: opts.Ring, D: opts.D, Algorithm: opts.Algorithm}
	fp, err := core.Fingerprint(ahat, bhat, xhat, opts)
	return fp, opts, err
}
