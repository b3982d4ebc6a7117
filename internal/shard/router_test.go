package shard

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"lbmm/internal/service"
	"lbmm/internal/workload"
)

// TestRouterRefusesOversizedBody: the router buffers a routed body to
// fingerprint it, so it applies the serving API's body cap itself — a body
// over service.MaxBodyBytes is refused with 413, never truncated and served
// locally.
func TestRouterRefusesOversizedBody(t *testing.T) {
	sh := newTestShard(t, "cap-a", t.TempDir())
	if err := sh.node.Start(""); err != nil {
		t.Fatal(err)
	}
	body := multiplyBody(t, workload.Mixed(16, 2, 7))
	h := NewRouter(sh.node, service.NewHandler(sh.server), nil, nil).Handler()
	for _, path := range []string{"/v1/multiply", "/v1/multiply/batch", "/v1/prepare"} {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.ContentLength = service.MaxBodyBytes + 1
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d for a body over the cap, want 413: %s", path, rec.Code, rec.Body)
		}
	}
	if m := sh.server.Metrics(); m[service.MetricRequests] != 0 {
		t.Errorf("an oversized body was served locally: serve/requests = %d", m[service.MetricRequests])
	}
}
