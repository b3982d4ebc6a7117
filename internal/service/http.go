package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"lbmm/internal/core"
	"lbmm/internal/matrix"
	"lbmm/internal/obsv"
	"lbmm/internal/ring"
)

// maxWireN bounds the declared dimension of HTTP requests: supports
// allocate O(n) row slices before any entry is read, so an unauthenticated
// request must not pick n freely.
const maxWireN = 1 << 20

// wireEntry is one value cell [i, j, value]; wirePos one support position
// [i, j]. Indices are written as JSON numbers and must be integers in
// [0, n).
type (
	wireEntry = [3]float64
	wirePos   = [2]int
)

// wireMultiplyRequest is the body of POST /v1/multiply.
type wireMultiplyRequest struct {
	N         int         `json:"n"`
	Ring      string      `json:"ring,omitempty"`      // boolean|counting|minplus|maxplus|gfp|real (default real)
	Algorithm string      `json:"algorithm,omitempty"` // auto|theorem42|lemma31 (default auto)
	D         int         `json:"d,omitempty"`
	A         []wireEntry `json:"a"`
	B         []wireEntry `json:"b"`
	Xhat      []wirePos   `json:"xhat"`
	Trace     bool        `json:"trace,omitempty"`
}

// wireMultiplyReport is the how-it-was-served block shared by the scalar
// and batched multiply responses (embedded, so its fields flatten into the
// enclosing JSON object).
type wireMultiplyReport struct {
	Rounds       int          `json:"rounds"`
	Phase1Rounds int          `json:"phase1_rounds"`
	Phase2Rounds int          `json:"phase2_rounds"`
	Messages     int64        `json:"messages"`
	PeakStore    int          `json:"peak_store"`
	Algorithm    string       `json:"algorithm"`
	Classes      [3]string    `json:"classes"`
	Band         string       `json:"band"`
	D            int          `json:"d"`
	Fingerprint  string       `json:"fingerprint"`
	Cache        string       `json:"cache"` // "hit" or "miss"
	Profile      *obsv.Export `json:"profile,omitempty"`
}

// wireMultiplyResponse is the body of a successful /v1/multiply.
type wireMultiplyResponse struct {
	X []wireEntry `json:"x"`
	wireMultiplyReport
}

// wireBatchLane is one value set of POST /v1/multiply/batch.
type wireBatchLane struct {
	A []wireEntry `json:"a"`
	B []wireEntry `json:"b"`
}

// wireMultiplyBatchRequest is the body of POST /v1/multiply/batch: k value
// sets over one shared sparsity structure, multiplied as a single batched
// run.
type wireMultiplyBatchRequest struct {
	N         int             `json:"n"`
	Ring      string          `json:"ring,omitempty"`
	Algorithm string          `json:"algorithm,omitempty"`
	D         int             `json:"d,omitempty"`
	Lanes     []wireBatchLane `json:"lanes"`
	Xhat      []wirePos       `json:"xhat"`
	Trace     bool            `json:"trace,omitempty"`
}

// wireMultiplyBatchResponse is the body of a successful batch multiply:
// per-lane products plus the shared batch report (rounds, messages etc.
// were paid once for the whole batch).
type wireMultiplyBatchResponse struct {
	Lanes      [][]wireEntry `json:"lanes"`
	BatchLanes int           `json:"batch_lanes"`
	wireMultiplyReport
}

// multiplyReportWire assembles the report/trace block of a multiply
// response — the per-request setup the scalar and batched handlers share.
func multiplyReportWire(rep *core.Report, fp string, hit bool, profile *obsv.Export) wireMultiplyReport {
	return wireMultiplyReport{
		Rounds:       rep.Rounds,
		Phase1Rounds: rep.Phase1Rounds,
		Phase2Rounds: rep.Phase2Rounds,
		Messages:     rep.Stats.Messages,
		PeakStore:    rep.Stats.PeakStore,
		Algorithm:    rep.Name,
		Classes:      classNames(rep.Classes),
		Band:         rep.Band.String(),
		D:            rep.D,
		Fingerprint:  fp,
		Cache:        cacheWord(hit),
		Profile:      profile,
	}
}

// wirePrepareRequest is the body of POST /v1/prepare.
type wirePrepareRequest struct {
	N         int       `json:"n"`
	Ring      string    `json:"ring,omitempty"`
	Algorithm string    `json:"algorithm,omitempty"`
	D         int       `json:"d,omitempty"`
	Ahat      []wirePos `json:"ahat"`
	Bhat      []wirePos `json:"bhat"`
	Xhat      []wirePos `json:"xhat"`
}

type wirePrepareResponse struct {
	Fingerprint string    `json:"fingerprint"`
	Cache       string    `json:"cache"`
	Classes     [3]string `json:"classes"`
	Band        string    `json:"band"`
	D           int       `json:"d"`
}

// wireClassifyRequest is the body of POST /v1/classify.
type wireClassifyRequest struct {
	N    int       `json:"n"`
	D    int       `json:"d,omitempty"`
	Ahat []wirePos `json:"ahat"`
	Bhat []wirePos `json:"bhat"`
	Xhat []wirePos `json:"xhat"`
}

type wireClassifyResponse struct {
	Classes [3]string `json:"classes"`
	Band    string    `json:"band"`
	D       int       `json:"d"`
	Upper   string    `json:"upper"`
	Lower   string    `json:"lower"`
}

type wireError struct {
	Error string `json:"error"`
}

// NewHandler mounts the serving API onto a fresh mux:
//
//	POST /v1/multiply        multiply values through the plan cache
//	POST /v1/multiply/batch  multiply k same-structure value sets as one batch
//	POST /v1/prepare         warm the cache for a structure
//	POST /v1/classify        Table 2 classification of a structure
//	GET  /healthz            liveness
//	GET  /metrics            JSON snapshot of every service counter
func NewHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/multiply", func(w http.ResponseWriter, r *http.Request) {
		handleMultiply(s, w, r)
	})
	mux.HandleFunc("POST /v1/multiply/batch", func(w http.ResponseWriter, r *http.Request) {
		handleMultiplyBatch(s, w, r)
	})
	mux.HandleFunc("POST /v1/prepare", func(w http.ResponseWriter, r *http.Request) {
		handlePrepare(s, w, r)
	})
	mux.HandleFunc("POST /v1/classify", func(w http.ResponseWriter, r *http.Request) {
		handleClassify(s, w, r)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	return mux
}

func handleMultiply(s *Server, w http.ResponseWriter, r *http.Request) {
	var wm wireMultiplyRequest
	if err := decodeBody(w, r, &wm); err != nil {
		writeServeErr(w, err)
		return
	}
	req, err := ParseWireMultiply(&wm)
	if err != nil {
		writeServeErr(w, err)
		return
	}
	resp, err := s.Multiply(r.Context(), req)
	if err != nil {
		writeServeErr(w, err)
		return
	}
	out := &wireMultiplyResponse{
		X:                  sparseEntries(resp.X),
		wireMultiplyReport: multiplyReportWire(resp.Report, resp.Fingerprint, resp.CacheHit, resp.Profile),
	}
	writeJSON(w, http.StatusOK, out)
}

func handleMultiplyBatch(s *Server, w http.ResponseWriter, r *http.Request) {
	var wb wireMultiplyBatchRequest
	if err := decodeBody(w, r, &wb); err != nil {
		writeServeErr(w, err)
		return
	}
	req, err := parseWireBatch(&wb)
	if err != nil {
		writeServeErr(w, err)
		return
	}
	resp, err := s.MultiplyBatch(r.Context(), req)
	if err != nil {
		writeServeErr(w, err)
		return
	}
	out := &wireMultiplyBatchResponse{
		Lanes:              make([][]wireEntry, len(resp.X)),
		BatchLanes:         len(resp.X),
		wireMultiplyReport: multiplyReportWire(resp.Report, resp.Fingerprint, resp.CacheHit, resp.Profile),
	}
	for l, x := range resp.X {
		out.Lanes[l] = sparseEntries(x)
	}
	writeJSON(w, http.StatusOK, out)
}

func handlePrepare(s *Server, w http.ResponseWriter, r *http.Request) {
	var req wirePrepareRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeServeErr(w, err)
		return
	}
	opts, err := wireOptions(req.Ring, req.Algorithm, req.D)
	if err != nil {
		writeServeErr(w, err)
		return
	}
	supports, err := buildSupports(req.N, req.Ahat, req.Bhat, req.Xhat)
	if err != nil {
		writeServeErr(w, err)
		return
	}
	resp, err := s.Prepare(r.Context(), &PrepareRequest{
		Ahat: supports[0], Bhat: supports[1], Xhat: supports[2], Options: opts,
	})
	if err != nil {
		writeServeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &wirePrepareResponse{
		Fingerprint: resp.Fingerprint,
		Cache:       cacheWord(resp.CacheHit),
		Classes:     classNames(resp.Classes),
		Band:        resp.Band.String(),
		D:           resp.D,
	})
}

func handleClassify(s *Server, w http.ResponseWriter, r *http.Request) {
	var req wireClassifyRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeServeErr(w, err)
		return
	}
	supports, err := buildSupports(req.N, req.Ahat, req.Bhat, req.Xhat)
	if err != nil {
		writeServeErr(w, err)
		return
	}
	resp, err := s.Classify(r.Context(), &ClassifyRequest{
		Ahat: supports[0], Bhat: supports[1], Xhat: supports[2], D: req.D,
	})
	if err != nil {
		writeServeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &wireClassifyResponse{
		Classes: classNames(resp.Classes),
		Band:    resp.Band.String(),
		D:       resp.D,
		Upper:   resp.Upper,
		Lower:   resp.Lower,
	})
}

// ---------------------------------------------------------------------------
// wire helpers
//
// Every helper that rejects untrusted wire input wraps ErrInvalid, so the
// handlers map all of them through ErrStatus to 400.

// MaxBodyBytes bounds the body of every serving-API request, both where a
// handler decodes it and where the shard router buffers it to route. A
// longer body is refused with 413 Request Entity Too Large.
const MaxBodyBytes = 128 << 20

// decodeBody decodes a request body of at most MaxBodyBytes. A declared
// length over the bound is refused before anything is read.
func decodeBody(w http.ResponseWriter, r *http.Request, into any) error {
	if r.ContentLength > MaxBodyBytes {
		return &http.MaxBytesError{Limit: MaxBodyBytes}
	}
	return decodeJSON(http.MaxBytesReader(w, r.Body, MaxBodyBytes), into)
}

// decodeJSON decodes one request payload, rejecting unknown fields. The
// handlers and RequestFingerprint share it, so a router accepts exactly
// the bodies the handler behind it accepts.
func decodeJSON(r io.Reader, into any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("%w: bad request body: %w", ErrInvalid, err)
	}
	return nil
}

// wireOptions resolves a payload's plan options.
func wireOptions(ringName, alg string, d int) (core.Options, error) {
	if ringName == "" {
		ringName = "real"
	}
	r, err := matrix.RingByName(ringName)
	if err != nil {
		return core.Options{}, fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	return core.Options{Ring: r, D: d, Algorithm: alg}, nil
}

func checkN(n int) error {
	if n < 1 || n > maxWireN {
		return fmt.Errorf("%w: n must be in [1, %d], got %d", ErrInvalid, maxWireN, n)
	}
	return nil
}

func buildSparse(n int, r ring.Semiring, entries []wireEntry, what string) (*matrix.Sparse, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	m := matrix.NewSparse(n, r)
	for _, e := range entries {
		i, j := int(e[0]), int(e[1])
		if float64(i) != e[0] || float64(j) != e[1] || i < 0 || i >= n || j < 0 || j >= n {
			return nil, fmt.Errorf("%w: %s: entry (%g,%g) is not a valid index pair for n=%d", ErrInvalid, what, e[0], e[1], n)
		}
		m.Set(i, j, e[2])
	}
	return m, nil
}

func buildSupport(n int, positions []wirePos, what string) (*matrix.Support, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	for _, p := range positions {
		if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
			return nil, fmt.Errorf("%w: %s: position (%d,%d) out of range for n=%d", ErrInvalid, what, p[0], p[1], n)
		}
	}
	return matrix.NewSupport(n, positions), nil
}

func buildSupports(n int, ahat, bhat, xhat []wirePos) ([3]*matrix.Support, error) {
	var out [3]*matrix.Support
	for idx, in := range []struct {
		pos  []wirePos
		what string
	}{{ahat, "ahat"}, {bhat, "bhat"}, {xhat, "xhat"}} {
		s, err := buildSupport(n, in.pos, in.what)
		if err != nil {
			return out, err
		}
		out[idx] = s
	}
	return out, nil
}

func sparseEntries(m *matrix.Sparse) []wireEntry {
	out := make([]wireEntry, 0, m.NNZ())
	for i, row := range m.Rows {
		for _, c := range row {
			out = append(out, wireEntry{float64(i), float64(c.Col), c.Val})
		}
	}
	return out
}

func classNames(cs [3]matrix.Class) [3]string {
	return [3]string{cs[0].String(), cs[1].String(), cs[2].String()}
}

func cacheWord(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// statusClientClosedRequest is the (nginx-conventional) status for a
// request whose caller hung up while it waited; Go's net/http has no named
// constant for it.
const statusClientClosedRequest = 499

// writeServeErr writes err with its ErrStatus code. A shed request also
// gets Retry-After: shed means "come back, just not immediately", and the
// header turns client retry storms into backoff instead of hammering.
func writeServeErr(w http.ResponseWriter, err error) {
	status := ErrStatus(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, wireError{Error: err.Error()})
}
