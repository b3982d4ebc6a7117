package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"lbmm/internal/chaos"
	"lbmm/internal/core"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// dropAll is an injector that drops the first real message it sees —
// guaranteed to fault any plan with network traffic.
func dropAll() lbm.Injector {
	return chaos.FaultPlan{Rates: chaos.Rates{Drop: 1}}.MustInjector()
}

func faultReq(r ring.Semiring, seed int64) (*MultiplyRequest, *matrix.Sparse) {
	inst := workload.Blocks(16, 4)
	a := matrix.Random(inst.Ahat, r, seed)
	b := matrix.Random(inst.Bhat, r, seed+1)
	want := matrix.MulReference(a, b, inst.Xhat)
	return &MultiplyRequest{A: a, B: b, Xhat: inst.Xhat, Options: core.Options{Ring: r}}, want
}

// TestServerFaultRetry: a fault on the first attempt is retried and the
// retry serves the correct product.
func TestServerFaultRetry(t *testing.T) {
	srv := NewServer(Config{
		CacheSize: 4,
		FaultInjector: func(attempt int) lbm.Injector {
			if attempt == 0 {
				return dropAll()
			}
			return nil
		},
	})
	req, want := faultReq(ring.Counting{}, 1)
	resp, err := srv.Multiply(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(resp.X, want) {
		t.Error("retried request served a wrong product")
	}
	m := srv.Metrics()
	if m[MetricFaults] != 1 || m[MetricRetries] != 1 {
		t.Errorf("faults=%d retries=%d, want 1/1", m[MetricFaults], m[MetricRetries])
	}
	if m[MetricServed] != 1 || m[MetricErrors] != 0 {
		t.Errorf("served=%d errors=%d, want 1/0", m[MetricServed], m[MetricErrors])
	}
}

// TestServerFaultExhausted: when every attempt faults, the caller gets the
// typed lbm.ErrFault with its provenance after the one retry, counted as an
// error.
func TestServerFaultExhausted(t *testing.T) {
	srv := NewServer(Config{
		CacheSize:     4,
		FaultInjector: func(int) lbm.Injector { return dropAll() },
	})
	req, _ := faultReq(ring.MinPlus{}, 3)
	_, err := srv.Multiply(context.Background(), req)
	f, ok := lbm.AsFault(err)
	if !ok {
		t.Fatalf("err = %v, want a typed lbm.ErrFault", err)
	}
	if f.Kind != lbm.FaultDrop || f.Round < 0 || f.Node < 0 {
		t.Errorf("fault lost provenance: %+v", f)
	}
	m := srv.Metrics()
	// serve/faults counts every faulted attempt: the first and its retry.
	if m[MetricFaults] != 2 || m[MetricRetries] != 1 {
		t.Errorf("faults=%d retries=%d, want 2/1", m[MetricFaults], m[MetricRetries])
	}
	if m[MetricErrors] != 1 || m[MetricServed] != 0 {
		t.Errorf("errors=%d served=%d, want 1/0", m[MetricErrors], m[MetricServed])
	}
}

// TestServerInvalidRequests: malformed requests fail upfront with ErrInvalid
// — before admission, with nothing admitted or cached — exactly as Classify
// always did.
func TestServerInvalidRequests(t *testing.T) {
	srv := NewServer(Config{CacheSize: 4})
	ctx := context.Background()
	r := ring.Counting{}
	i16 := workload.Blocks(16, 4)
	i32 := workload.Blocks(32, 4)
	a16 := matrix.Random(i16.Ahat, r, 1)
	b16 := matrix.Random(i16.Bhat, r, 2)
	b32 := matrix.Random(i32.Bhat, r, 2)

	cases := []struct {
		name string
		err  func() error
	}{
		{"multiply nil values", func() error {
			_, err := srv.Multiply(ctx, &MultiplyRequest{A: a16, Xhat: i16.Xhat})
			return err
		}},
		{"multiply dim mismatch", func() error {
			_, err := srv.Multiply(ctx, &MultiplyRequest{A: a16, B: b32, Xhat: i16.Xhat})
			return err
		}},
		{"multiply xhat mismatch", func() error {
			_, err := srv.Multiply(ctx, &MultiplyRequest{A: a16, B: b16, Xhat: i32.Xhat})
			return err
		}},
		{"prepare dim mismatch", func() error {
			_, err := srv.Prepare(ctx, &PrepareRequest{Ahat: i16.Ahat, Bhat: i32.Bhat, Xhat: i16.Xhat})
			return err
		}},
		{"classify dim mismatch", func() error {
			_, err := srv.Classify(ctx, &ClassifyRequest{Ahat: i16.Ahat, Bhat: i32.Bhat, Xhat: i16.Xhat})
			return err
		}},
	}
	for _, c := range cases {
		if err := c.err(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", c.name, err)
		}
	}
	m := srv.Metrics()
	if m[MetricRequests] != 0 || m[MetricErrors] != 0 {
		t.Errorf("invalid requests touched admission: requests=%d errors=%d",
			m[MetricRequests], m[MetricErrors])
	}
}

// TestWriteServeErrTaxonomy pins the HTTP status for every class in the
// error taxonomy (docs/SERVICE.md), and that writeServeErr writes exactly
// what ErrStatus — the code the stream and shard layers report — says,
// with Retry-After on the retryable shed.
func TestWriteServeErrTaxonomy(t *testing.T) {
	fault := &lbm.ErrFault{Kind: lbm.FaultDrop, Round: 2, Node: 3, From: 1, To: 3}
	tooLarge := &http.MaxBytesError{Limit: MaxBodyBytes}
	cases := []struct {
		err  error
		want int
	}{
		{errors.New("wrap: " + ErrInvalid.Error()), http.StatusInternalServerError},
		{ErrInvalid, http.StatusBadRequest},
		{errors.Join(ErrInvalid, errors.New("detail")), http.StatusBadRequest},
		{tooLarge, http.StatusRequestEntityTooLarge},
		{fmt.Errorf("%w: bad request body: %w", ErrInvalid, tooLarge), http.StatusRequestEntityTooLarge},
		{ErrOverloaded, http.StatusServiceUnavailable},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, statusClientClosedRequest},
		{fault, http.StatusInternalServerError},
		{errors.New("boom"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		writeServeErr(rec, c.err)
		if rec.Code != c.want {
			t.Errorf("writeServeErr(%v) = %d, want %d", c.err, rec.Code, c.want)
		}
		if got := ErrStatus(c.err); got != rec.Code {
			t.Errorf("ErrStatus(%v) = %d, but writeServeErr wrote %d", c.err, got, rec.Code)
		}
		if retry := rec.Header().Get("Retry-After") != ""; retry != (c.want == http.StatusServiceUnavailable) {
			t.Errorf("writeServeErr(%v): Retry-After present = %v", c.err, retry)
		}
	}
}
