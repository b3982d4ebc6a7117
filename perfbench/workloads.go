package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"lbmm/internal/service"
	"lbmm/internal/stream"
)

// config is what every workload is built from.
type config struct {
	lbmm    string        // the lbmm binary under test
	scratch string        // per-run files (plan stores, spans), inside the checkout
	seed    int64         // workload seed
	seconds time.Duration // measured time of one run
}

// bench is one workload's system under test. setup launches and warms the
// serving processes (the benchmark calls it several times, closing in
// between, and reports the median as setup_s); loop drives the timed
// closed loop, recording client spans into sp when it is non-nil.
type bench interface {
	setup(ctx context.Context) error
	loop(d time.Duration, sp *spanLog) tally
	rssMiB() (float64, error)
	close()
}

// workloads maps each workload name to its constructor, which generates
// the inputs from the seed.
var workloads = map[string]func(cfg config) (bench, error){
	"hot-http":         newHotHTTP,
	"stream-pipelined": newStreamPipelined,
}

// workloadNames lists the workloads in the order BENCHMARK.json declares.
// The plan-churn and dist tiers have no end-to-end workload: their spread
// across runs on a shared VM exceeded every bound the benchmark may set
// (README.md). The traced run measures their layers.
var workloadNames = []string{"hot-http", "stream-pipelined"}

// clientCount is how many client goroutines and connections drive an HTTP
// workload: at most the core count, so the load generator cannot
// outnumber the cores it shares with the server.
func clientCount() int { return min(2, runtime.NumCPU()) }

// launch starts `lbmm serve` with the given flags and waits until it
// answers GET /healthz, retrying with a fresh port if the chosen one was
// taken meanwhile.
func launch(ctx context.Context, bin string, args ...string) (*proc, error) {
	var err error
	for try := 0; try < 3; try++ {
		var p *proc
		if p, err = startLbmm(bin, args...); err != nil {
			return nil, err
		}
		if err = p.waitReady(ctx, healthy(p.addr)); err == nil {
			return p, nil
		}
		p.stop()
	}
	return nil, err
}

// ---------------------------------------------------------------------------
// hot-http

// httpBench drives POST /v1/multiply from clientCount keep-alive clients
// against a default `lbmm serve`, cycling through the hot value pool.
type httpBench struct {
	cfg config
	hot *structure

	p       *proc
	clients []*http.Client
	next    atomic.Int64 // index of the next value set
	seq     atomic.Int64 // request ids of the spans
	served  string       // cache shares of the last loop, from GET /metrics
}

func newHotHTTP(cfg config) (bench, error) {
	hot, err := genHot(cfg.seed)
	if err != nil {
		return nil, err
	}
	return &httpBench{cfg: cfg, hot: hot}, nil
}

func (b *httpBench) setup(ctx context.Context) error {
	var err error
	if b.p, err = launch(ctx, b.cfg.lbmm, "serve"); err != nil {
		return err
	}
	b.clients = make([]*http.Client, clientCount())
	for c := range b.clients {
		b.clients[c] = newHTTPClient(nil)
	}
	// The first request compiles the plan; the rest open and warm every
	// client connection.
	for i, vs := range b.hot.vals[:4*len(b.clients)] {
		if o := b.post(b.clients[i%len(b.clients)], vs, nil); o.err != nil || o.wrong > 0 {
			return fmt.Errorf("warm-up request %d: %v (wrong products: %d)", i, o.err, o.wrong)
		}
	}
	return nil
}

func (b *httpBench) loop(d time.Duration, sp *spanLog) tally {
	before, err := b.counters()
	t := closedLoop(len(b.clients), d, func(c int) outcome {
		return b.post(b.clients[c], b.hot.vals[int(b.next.Add(1))%len(b.hot.vals)], sp)
	})
	after, err2 := b.counters()
	if err == nil && err2 == nil {
		c := delta(before, after)
		n := c[service.MetricRequests]
		b.served = fmt.Sprintf("cache hit %.4f, compile %.4f of %d requests",
			ratio(c[service.MetricCacheHits], n), ratio(c[service.MetricCompiles], n), n)
	}
	return t
}

// counters reads the server's GET /metrics.
func (b *httpBench) counters() (map[string]int64, error) {
	resp, err := probeClient.Get("http://" + b.p.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]int64
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// servedBy says how the last loop's requests found their plan.
func (b *httpBench) servedBy() string { return b.served }

// post sends one multiply and checks the product against the oracle. The
// latency covers sending the body through reading the last response byte;
// decoding and checking happen after the clock stops.
func (b *httpBench) post(hc *http.Client, vs *valueSet, sp *spanLog) outcome {
	o := outcome{products: 1}
	req := b.seq.Add(1)
	t0 := time.Now()
	resp, err := hc.Post("http://"+b.p.addr+"/v1/multiply", "application/json", bytes.NewReader(vs.body))
	if err != nil {
		o.err = err
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	o.lat = t1.Sub(t0)
	if err != nil {
		o.err = err
		return o
	}
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("POST /v1/multiply: %s: %s", resp.Status, bytes.TrimSpace(body))
		return o
	}
	var out struct {
		X      []service.WireEntry `json:"x"`
		Rounds int                 `json:"rounds"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		o.err = fmt.Errorf("decode product: %w", err)
		return o
	}
	o.rounds = out.Rounds
	if !checkProduct(b.hot.inst.N, out.X, vs.want) {
		o.wrong = 1
	}
	sp.add(req, "http.post", t0, t1)
	sp.add(req, "client.check", t1, time.Now())
	return o
}

func (b *httpBench) rssMiB() (float64, error) { return b.p.peakRSSMiB() }

func (b *httpBench) close() {
	for _, hc := range b.clients {
		hc.CloseIdleConnections()
	}
	if b.p != nil {
		b.p.stop()
	}
}

// ---------------------------------------------------------------------------
// stream-pipelined

// streamWindow is the session's fixed in-flight window, below the server's
// advertised max_inflight (512 by default).
const streamWindow = 32

type streamBench struct {
	cfg  config
	hot  *structure
	p    *proc
	c    *stream.Client
	next int
	seq  int64
}

func newStreamPipelined(cfg config) (bench, error) {
	hot, err := genHot(cfg.seed)
	if err != nil {
		return nil, err
	}
	return &streamBench{cfg: cfg, hot: hot}, nil
}

func (b *streamBench) setup(ctx context.Context) error {
	var err error
	if b.p, err = launch(ctx, b.cfg.lbmm, "serve", "-stream", "-batch-adaptive"); err != nil {
		return err
	}
	// No client timeout: the session is one long-lived request.
	hc := newHTTPClient(nil)
	hc.Timeout = 0
	if b.c, err = stream.Dial(context.Background(), "http://"+b.p.addr, hc); err != nil {
		return err
	}
	if b.c.MaxInflight() <= streamWindow {
		return fmt.Errorf("server advertises max_inflight %d, the window needs more than %d", b.c.MaxInflight(), streamWindow)
	}
	// Warm-up: compile the plan, then let the batch controller see a
	// full window of arrivals before anything is timed.
	if t := b.pipeline(0, 4*streamWindow, nil); t.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d lanes failed", t.failed, t.attempted)
	}
	return nil
}

func (b *streamBench) loop(d time.Duration, sp *spanLog) tally {
	return b.pipeline(d, 0, sp)
}

// pipeline keeps streamWindow lanes in flight on the session: one
// goroutine submits whenever a slot is free, another waits for outcomes in
// submit order and frees the slot. It stops submitting after d has elapsed
// or, when lanes > 0, after that many lanes.
func (b *streamBench) pipeline(d time.Duration, lanes int, sp *spanLog) tally {
	type inflight struct {
		call *stream.Call
		vs   *valueSet
		req  int64
		t0   time.Time
	}
	ctx, cancel := context.WithTimeout(context.Background(), d+time.Minute)
	defer cancel()
	slots := make(chan struct{}, streamWindow)
	queue := make(chan inflight, streamWindow) // never blocks: slots bound it
	t := tally{start: time.Now()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for f := range queue {
			fr, err := f.call.Wait(ctx)
			t1 := time.Now()
			o := outcome{products: 1, lat: t1.Sub(f.t0), err: err}
			switch {
			case err != nil:
			case fr.Type != stream.TypeResult:
				o.err = fmt.Errorf("lane %s: code %d: %s", fr.ID, fr.Code, fr.Error)
			default:
				if fr.Report != nil {
					o.rounds = fr.Report.Rounds
				}
				if !checkProduct(b.hot.inst.N, fr.X, f.vs.want) {
					o.wrong = 1
				}
			}
			t.record(o)
			sp.add(f.req, "stream.lane", f.t0, t1)
			sp.add(f.req, "client.check", t1, time.Now())
			<-slots
		}
	}()
	deadline := time.Now().Add(d)
	var submitErr error
	for n := 0; lanes > 0 && n < lanes || lanes == 0 && time.Now().Before(deadline); n++ {
		slots <- struct{}{}
		vs := b.hot.vals[b.next%len(b.hot.vals)]
		b.next++
		b.seq++
		t0 := time.Now()
		call, err := b.c.Submit(strconv.FormatInt(b.seq, 10), vs.wm)
		if err != nil {
			submitErr = err
			break
		}
		queue <- inflight{call, vs, b.seq, t0}
	}
	close(queue)
	<-done
	t.end = time.Now()
	if submitErr != nil {
		t.record(outcome{products: 1, err: submitErr})
	}
	return t
}

func (b *streamBench) rssMiB() (float64, error) { return b.p.peakRSSMiB() }

func (b *streamBench) close() {
	if b.c != nil {
		_ = b.c.Close()
		b.c = nil
	}
	if b.p != nil {
		b.p.stop()
	}
}
