package shard

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"

	"lbmm/internal/obsv"
	"lbmm/internal/service"
)

const (
	// ForwardHeader marks a proxied request with the forwarding node's ID.
	// A node receiving a marked request serves it locally even when its own
	// view disagrees about ownership: one hop is allowed to be wrong during
	// a rebalance, a loop never is.
	ForwardHeader = "X-Lbmm-Forward"
	// ShardHeader names, on every response, the node that actually executed
	// the request — the observable trail of forwards for tests and drills.
	ShardHeader = "X-Lbmm-Shard"
)

// routedPaths are the endpoints routed by plan fingerprint. Everything else
// (classify, health, metrics, shard protocol) is served where it lands.
func routedPath(path string) bool {
	switch path {
	case "/v1/multiply", "/v1/multiply/batch", "/v1/prepare":
		return true
	}
	return false
}

// Router fronts one shard: it owns the node's membership endpoints, serves
// local traffic through the wrapped service handler, and proxies requests
// whose plan fingerprint hashes to another member. Any shard can therefore
// accept any request; forwarding is an optimization for cache locality,
// never a correctness requirement — on any forwarding trouble the router
// degrades to serving locally (the shared plan store keeps that cheap).
type Router struct {
	node    *Node
	local   http.Handler
	client  *http.Client
	metrics *obsv.CounterSet
}

// NewRouter builds the routing front-end for a node. local is the shard's
// own service handler (service.NewHandler); metrics receives the
// shard/forward* counters — pass the node's set so everything lands in one
// /metrics snapshot. client may be nil for a default.
func NewRouter(node *Node, local http.Handler, client *http.Client, metrics *obsv.CounterSet) *Router {
	if client == nil {
		client = &http.Client{}
	}
	if metrics == nil {
		metrics = obsv.NewCounterSet()
	}
	return &Router{node: node, local: local, client: client, metrics: metrics}
}

// Handler returns the shard's full HTTP surface: membership protocol under
// /shard/v1/, fingerprint-routed serving endpoints, and everything else
// served locally.
func (rt *Router) Handler() http.Handler {
	shardAPI := rt.node.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasPrefix(r.URL.Path, "/shard/v1/"):
			shardAPI.ServeHTTP(w, r)
		case r.Method == http.MethodPost && routedPath(r.URL.Path):
			rt.route(w, r)
		default:
			rt.serveLocal(w, r, nil)
		}
	})
}

// route buffers the body, fingerprints it, and either serves locally (we
// own it, the body defies fingerprinting, or the request already hopped
// once) or proxies to the owner. A body over service.MaxBodyBytes is
// refused with 413, exactly as the handler behind the router refuses it.
func (rt *Router) route(w http.ResponseWriter, r *http.Request) {
	var body []byte
	var err error
	if r.ContentLength > service.MaxBodyBytes {
		err = &http.MaxBytesError{Limit: service.MaxBodyBytes}
	} else {
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, service.MaxBodyBytes))
	}
	if err != nil {
		err = fmt.Errorf("%w: reading request body: %w", service.ErrInvalid, err)
		http.Error(w, err.Error(), service.ErrStatus(err))
		return
	}
	fp, err := service.RequestFingerprint(r.URL.Path, body)
	if err != nil {
		// Let the local wire layer produce its canonical 400.
		rt.serveLocal(w, r, body)
		return
	}
	owner, ok := rt.node.Owner(fp)
	self := rt.node.Self()
	if !ok || owner.ID == self.ID {
		rt.serveLocal(w, r, body)
		return
	}
	if from := r.Header.Get(ForwardHeader); from != "" {
		// A peer routed this to us but our view says someone else owns it:
		// the views disagree mid-rebalance. Serving locally is always
		// correct (shared store); bouncing could loop.
		rt.metrics.Add(MetricForwardMiss, 1)
		rt.serveLocal(w, r, body)
		return
	}
	rt.forward(w, r, body, owner)
}

// serveLocal hands the request to the wrapped service handler, restoring
// the buffered body when one was read.
func (rt *Router) serveLocal(w http.ResponseWriter, r *http.Request, body []byte) {
	if body != nil {
		r = r.Clone(r.Context())
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
	}
	w.Header().Set(ShardHeader, rt.node.Self().ID)
	rt.local.ServeHTTP(w, r)
}

// forward proxies the request to the owning member and relays the response.
// A transport failure (the owner died between the view and the dial, or
// mid-response) falls back to serving locally — the request must not be
// lost to a routing optimization.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, body []byte, owner Member) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		"http://"+owner.Addr+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		rt.serveLocal(w, r, body)
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	req.Header.Set(ForwardHeader, rt.node.Self().ID)
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.metrics.Add(MetricForwardFall, 1)
		rt.serveLocal(w, r, body)
		return
	}
	defer resp.Body.Close()
	rt.metrics.Add(MetricForwards, 1)
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	if resp.StatusCode == http.StatusServiceUnavailable && w.Header().Get("Retry-After") == "" {
		// A forwarded overload must still tell the client to back off, even
		// if the upstream predates the header.
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}
