package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// fuzzMaxN bounds the dimension the fuzz targets accept: supports allocate
// O(n) rows, and the parsers walk the same code for every n up to the wire
// bound, so larger inputs only slow the fuzzer down.
const fuzzMaxN = 1 << 12

// fuzzN reads the dimension a body declares, ignoring every other field.
func fuzzN(body []byte) int {
	var probe struct {
		N int `json:"n"`
	}
	_ = json.Unmarshal(body, &probe)
	return probe.N
}

// The seed corpora of both targets are checked in under testdata/fuzz.

// FuzzParseWireMultiply: the /v1/multiply parse path never panics, and the
// router's fingerprint agrees with the server on every body — it accepts
// exactly the bodies the handler accepts, and for those computes exactly
// the plan key the server resolves the parsed request under.
func FuzzParseWireMultiply(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		if fuzzN(body) > fuzzMaxN {
			t.Skip()
		}
		routed, routeErr := RequestFingerprint("/v1/multiply", body)
		var wm WireMultiply
		err := decodeJSON(bytes.NewReader(body), &wm)
		var req *MultiplyRequest
		if err == nil {
			req, err = ParseWireMultiply(&wm)
		}
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("parse error %v does not wrap ErrInvalid", err)
			}
			if routeErr == nil {
				t.Fatalf("handler rejects the body (%v) but the router fingerprints it", err)
			}
			return
		}
		if routeErr != nil {
			t.Fatalf("handler accepts the body but the router cannot fingerprint it: %v", routeErr)
		}
		key, _, err := planKey(req.A.Support(), req.B.Support(), req.Xhat, req.Options)
		if err != nil {
			t.Fatalf("server key: %v", err)
		}
		if routed != key {
			t.Fatalf("router fingerprint %s, server key %s", routed, key)
		}
	})
}

// FuzzRequestFingerprint: fingerprinting any body on any path never
// panics, fails only with ErrBadRequest, and for a batch the handler
// accepts routes by the key the server resolves the batch under.
func FuzzRequestFingerprint(f *testing.F) {
	paths := []string{"/v1/multiply", "/v1/multiply/batch", "/v1/prepare", "/v1/classify"}
	f.Fuzz(func(t *testing.T, sel uint8, body []byte) {
		if fuzzN(body) > fuzzMaxN {
			t.Skip()
		}
		path := paths[int(sel)%len(paths)]
		fp, err := RequestFingerprint(path, body)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("%s: error %v does not wrap ErrBadRequest", path, err)
			}
			return
		}
		if len(fp) != 64 {
			t.Fatalf("%s: fingerprint %q is not a SHA-256 hex digest", path, fp)
		}
		if path != "/v1/multiply/batch" {
			return
		}
		var wb wireMultiplyBatchRequest
		if decodeJSON(bytes.NewReader(body), &wb) != nil {
			t.Fatal("batch body fingerprinted but not decodable")
		}
		req, err := parseWireBatch(&wb)
		if err != nil {
			return // a later lane is malformed; the handler answers 400
		}
		key, _, err := planKey(req.Lanes[0].A.Support(), req.Lanes[0].B.Support(), req.Xhat, req.Options)
		if err != nil {
			t.Fatalf("server key: %v", err)
		}
		if fp != key {
			t.Fatalf("router fingerprint %s, server key %s", fp, key)
		}
	})
}
