package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lbmm/internal/batch"
	"lbmm/internal/control"
	"lbmm/internal/core"
	"lbmm/internal/dist"
	"lbmm/internal/matrix"
	"lbmm/internal/obsv"
	"lbmm/internal/planstore"
	"lbmm/internal/service"
	"lbmm/internal/stream"
)

// The traced run (-trace 1) has two parts.
//
//  1. The workload's own closed loop against the real binaries, in
//     alternating windows with client spans off and on. The spans are
//     written to the run's scratch directory; the latency difference
//     between the windows is trace.overhead_frac.
//  2. An in-process replay of the seed's generated inputs through the
//     public function of each layer, timed from the outside, plus counter
//     deltas of in-process servers. Each layer is fed the inputs of the
//     workload its metric speaks for (README.md), so every traced run
//     reports every per-layer metric.

// Units of the per-layer metrics (BENCHMARK.json "per_layer").
var perLayerUnits = map[string]string{
	"service.json_decode_us":    "us",
	"service.parse_us":          "us",
	"service.encode_us":         "us",
	"service.multiply_us":       "us",
	"service.overhead_ratio":    "ratio",
	"net.bytes_per_mult":        "B",
	"matrix.support_us":         "us",
	"core.fingerprint_us":       "us",
	"core.prepare_ms":           "ms",
	"core.plan_encode_us":       "us",
	"core.plan_decode_us":       "us",
	"core.plan_heap_kb":         "KiB",
	"cache.accounted_frac":      "ratio",
	"engine.multiply_us":        "us",
	"engine.lane_us":            "us",
	"engine.rounds":             "rounds",
	"engine.messages":           "messages",
	"cache.hit_ratio":           "ratio",
	"cache.evictions_per_mult":  "1/mult",
	"planstore.hit_ratio":       "ratio",
	"planstore.get_us":          "us",
	"planstore.put_ms":          "ms",
	"serve.compiles_per_mult":   "1/mult",
	"batch.mean_lanes":          "lanes",
	"batch.wait_us_per_lane":    "us",
	"batch.launch_full_frac":    "ratio",
	"batch.launch_timeout_frac": "ratio",
	"control.batched_frac":      "ratio",
	"stream.xhat_reuse_ratio":   "ratio",
	"stream.backpressure":       "1/submit",
	"dist.run_ms":               "ms",
	"dist.round_us":             "us",
	"dist.wire_bytes_per_round": "B/round",
	"dist.flushes_per_round":    "1/round",
	"dist.wire_model_ratio":     "ratio",
	"dist.plan_hit_ratio":       "ratio",
	"trace.overhead_frac":       "ratio",
}

// span is one client-side interval of a request; spans of one request
// share req.
type span struct {
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, which is how untraced loops run.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func (l *spanLog) add(req int64, name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{req, name, start.Sub(l.origin).Nanoseconds(), end.Sub(l.origin).Nanoseconds()})
	l.mu.Unlock()
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// layerRun collects the per-layer values and the product checks of a
// traced run.
type layerRun struct {
	cfg    config
	budget time.Duration // time given to each timed call or replay
	values map[string]float64
	t      tally
}

func (r *layerRun) set(name string, v float64) { r.values[name] = v }

// check records one in-process product against its oracle.
func (r *layerRun) check(x *matrix.Sparse, want *matrix.Sparse, rounds int) {
	o := outcome{products: 1, rounds: rounds}
	if !matrix.Equal(x, want) {
		o.wrong = 1
	}
	r.t.record(o)
}

// timeCalls calls f until budget has elapsed (at least 5 times) and
// returns the median time of one call.
func timeCalls(budget time.Duration, f func(i int) error) (time.Duration, error) {
	var times []float64
	start := time.Now()
	for i := 0; i < 5 || time.Since(start) < budget; i++ {
		t0 := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(t0)))
	}
	return time.Duration(median(times)), nil
}

func tracedRun(cfg config, name string, out io.Writer) (*result, error) {
	r := &layerRun{cfg: cfg, values: map[string]float64{}}
	overhead, err := traceOverhead(cfg, name, &r.t)
	if err != nil {
		return nil, err
	}
	r.set("trace.overhead_frac", overhead)

	// The in-process replay gets the other half of the run, in ~20 slices.
	r.budget = cfg.seconds / 2 / 20
	steps := []func() error{r.hotLayers, r.streamLayers, r.churnLayers, r.distLayers}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	res := &result{Correct: r.t.wrong == 0, Attempted: r.t.attempted, Failed: r.t.failed, Metrics: map[string]metric{}}
	for _, k := range sortedKeys(perLayerUnits) {
		v, ok := r.values[k]
		if !ok {
			return nil, fmt.Errorf("traced run did not measure %s", k)
		}
		res.Metrics[k] = metric{v, perLayerUnits[k]}
		fmt.Fprintf(out, "perfbench %s %-26s %14.6g %s\n", name, k, v, perLayerUnits[k])
	}
	return res, nil
}

// traceOverhead runs the workload's closed loop against the real binaries
// in six alternating windows, the odd ones with client spans recorded,
// and returns median traced latency over median untraced latency, minus 1.
func traceOverhead(cfg config, name string, t *tally) (float64, error) {
	b, err := workloads[name](cfg)
	if err != nil {
		return 0, fmt.Errorf("generate inputs: %w", err)
	}
	defer b.close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	err = b.setup(ctx)
	cancel()
	if err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	sp := &spanLog{origin: time.Now()}
	var lat [2][]float64
	const windows = 6
	for w := 0; w < windows; w++ {
		traced := w % 2
		var log *spanLog
		if traced == 1 {
			log = sp
		}
		wt := b.loop(cfg.seconds/2/windows, log)
		t.add(wt)
		if len(wt.samples) == 0 {
			return 0, fmt.Errorf("window %d completed no request (%d failed)", w, wt.failed)
		}
		lat[traced] = append(lat[traced], ms(quantile(wt.latencies(), 0.5)))
	}
	if err := sp.write(filepath.Join(filepath.Dir(cfg.scratch), fmt.Sprintf("spans-%s-%d.jsonl", name, cfg.seed))); err != nil {
		return 0, err
	}
	return median(lat[1])/median(lat[0]) - 1, nil
}

// hotLayers times the layers of one hot-http request, in the order the
// server runs them, on the hot structure's value pool.
func (r *layerRun) hotLayers() error {
	hot, err := genHot(r.cfg.seed)
	if err != nil {
		return err
	}
	vals := hot.vals
	pick := func(i int) *valueSet { return vals[i%len(vals)] }

	d, err := timeCalls(r.budget, func(i int) error {
		var wm service.WireMultiply
		return json.Unmarshal(pick(i).body, &wm)
	})
	if err != nil {
		return err
	}
	r.set("service.json_decode_us", us(d))

	reqs := make([]*service.MultiplyRequest, len(vals))
	for i, vs := range vals {
		if reqs[i], err = service.ParseWireMultiply(vs.wm); err != nil {
			return err
		}
	}
	d, err = timeCalls(r.budget, func(i int) error {
		_, err := service.ParseWireMultiply(pick(i).wm)
		return err
	})
	if err != nil {
		return err
	}
	r.set("service.parse_us", us(d))

	d, _ = timeCalls(r.budget, func(i int) error { reqs[i%len(reqs)].A.Support(); return nil })
	r.set("matrix.support_us", us(d))

	opts := serveOptions()
	inst := hot.inst
	d, err = timeCalls(r.budget, func(int) error {
		_, err := core.Fingerprint(inst.Ahat, inst.Bhat, inst.Xhat, opts)
		return err
	})
	if err != nil {
		return err
	}
	r.set("core.fingerprint_us", us(d))

	prep, err := core.Prepare(inst.Ahat, inst.Bhat, inst.Xhat, opts)
	if err != nil {
		return err
	}
	var rep *core.Report
	engine, err := timeCalls(r.budget, func(i int) error {
		x, rp, err := prep.Multiply(pick(i).a, pick(i).b)
		if err == nil {
			rep = rp
			r.check(x, pick(i).want, rp.Rounds)
		}
		return err
	})
	if err != nil {
		return err
	}
	r.set("engine.multiply_us", us(engine))
	r.set("engine.rounds", float64(rep.Stats.Rounds))
	r.set("engine.messages", float64(rep.Stats.Messages))

	srv := service.NewServer(service.Config{})
	defer srv.Close()
	ctx := context.Background()
	if _, err := srv.Multiply(ctx, reqs[0]); err != nil {
		return err
	}
	var resp *service.MultiplyResponse
	d, err = timeCalls(r.budget, func(i int) error {
		resp, err = srv.Multiply(ctx, reqs[i%len(reqs)])
		if err == nil {
			r.check(resp.X, pick(i).want, resp.Report.Rounds)
			if !resp.CacheHit {
				return fmt.Errorf("hot request %d missed the plan cache", i)
			}
		}
		return err
	})
	if err != nil {
		return err
	}
	r.set("service.multiply_us", us(d))
	r.set("service.overhead_ratio", float64(d)/float64(engine))

	d, err = timeCalls(r.budget, func(int) error {
		_, err := json.Marshal(struct {
			X []service.WireEntry `json:"x"`
			service.WireReport
		}{service.WireEntries(resp.X), service.BuildWireReport(resp)})
		return err
	})
	if err != nil {
		return err
	}
	r.set("service.encode_us", us(d))

	// Bytes one POST /v1/multiply moves through the client's connection.
	ts := httptest.NewServer(service.NewHandler(srv))
	defer ts.Close()
	var moved atomic.Int64
	hc := newHTTPClient(&moved)
	defer hc.CloseIdleConnections()
	hb := &httpBench{hot: hot, p: &proc{addr: ts.Listener.Addr().String()}}
	const posts = 64
	for i := 0; i < posts; i++ {
		o := hb.post(hc, pick(i), nil)
		r.t.record(o)
		if o.err != nil {
			return o.err
		}
	}
	r.set("net.bytes_per_mult", float64(moved.Load())/posts)
	return nil
}

// streamLayers replays a pipelined session against an in-process server
// configured like `lbmm serve -stream -batch-adaptive`, reading the batch,
// control and stream counters, then times the engine at the batch width
// the session reached.
func (r *layerRun) streamLayers() error {
	hot, err := genHot(r.cfg.seed)
	if err != nil {
		return err
	}
	ms := obsv.NewCounterSet()
	srv := service.NewServer(service.Config{BatchAdaptive: true, Metrics: ms})
	defer srv.Close()
	mux := http.NewServeMux()
	mux.Handle("/stream/", stream.NewHandler(srv, stream.Config{Metrics: ms}))
	ts := httptest.NewServer(mux)
	defer ts.Close()
	hc := newHTTPClient(nil)
	hc.Timeout = 0
	sb := &streamBench{hot: hot}
	if sb.c, err = stream.Dial(context.Background(), ts.URL, hc); err != nil {
		return err
	}
	defer sb.c.Close()
	sb.pipeline(0, 4*streamWindow, nil)
	before := ms.Snapshot()
	t := sb.pipeline(3*r.budget, 0, nil)
	r.t.add(t)
	if t.failed > 0 {
		return fmt.Errorf("in-process stream session: %d of %d lanes failed", t.failed, t.attempted)
	}
	c := delta(before, ms.Snapshot())
	launches := c[service.MetricBatchSize+"/count"]
	lanes := c[service.MetricBatchSize+"/sum"]
	r.set("batch.mean_lanes", ratio(lanes, launches))
	r.set("batch.wait_us_per_lane", ratio(c[service.MetricBatchWaitNs], lanes)/1e3)
	r.set("batch.launch_full_frac", ratio(c[service.MetricBatchLaunch+string(batch.ReasonFull)], launches))
	r.set("batch.launch_timeout_frac", ratio(c[service.MetricBatchLaunch+string(batch.ReasonTimeout)], launches))
	r.set("control.batched_frac", ratio(c[control.MetricBatched], c[control.MetricBatched]+c[control.MetricImmediate]))
	r.set("stream.xhat_reuse_ratio", ratio(c[stream.MetricXhatReuse], c[stream.MetricSubmits]))
	r.set("stream.backpressure", ratio(c[stream.MetricBackpressure], c[stream.MetricSubmits]))

	inst := hot.inst
	prep, err := core.Prepare(inst.Ahat, inst.Bhat, inst.Xhat, serveOptions())
	if err != nil {
		return err
	}
	k := max(1, int(math.Round(r.values["batch.mean_lanes"])))
	d, err := timeCalls(r.budget, func(i int) error {
		as, bs := make([]*matrix.Sparse, k), make([]*matrix.Sparse, k)
		for l := range as {
			vs := hot.vals[(i*k+l)%len(hot.vals)]
			as[l], bs[l] = vs.a, vs.b
		}
		xs, rep, err := prep.MultiplyBatch(as, bs, core.ExecOpts{})
		if err == nil {
			for l, x := range xs {
				r.check(x, hot.vals[(i*k+l)%len(hot.vals)].want, rep.Rounds)
			}
		}
		return err
	})
	if err != nil {
		return err
	}
	r.set("engine.lane_us", us(d)/float64(k))
	return nil
}

// churnLayers times compile, plan codec and plan store on the plan-churn
// working set, measures what a compiled plan retains on the heap, and
// replays the plan-churn request order through an in-process server with
// a cache of a third of the working set and a plan store.
func (r *layerRun) churnLayers() error {
	in, err := genChurn(r.cfg.seed, int(3*r.budget.Seconds()*churnRatePerSecond)+churnFreshEvery)
	if err != nil {
		return err
	}
	opts := serveOptions()
	var prepare, enc, dec, heap, accounted, put, get []float64
	store, err := planstore.Open(filepath.Join(r.cfg.scratch, "trace-store"), churnStoreMB<<20, nil)
	if err != nil {
		return err
	}
	for _, st := range in.hot {
		inst := st.inst
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		prep, err := core.Prepare(inst.Ahat, inst.Bhat, inst.Xhat, opts)
		prepare = append(prepare, float64(time.Since(t0)))
		if err != nil {
			return err
		}
		runtime.GC()
		runtime.ReadMemStats(&m1)
		retained := float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
		heap = append(heap, retained/1024)
		accounted = append(accounted, float64(prep.CompiledBytes())/retained)

		var buf bytes.Buffer
		t0 = time.Now()
		if err := prep.Encode(&buf); err != nil {
			return err
		}
		enc = append(enc, float64(time.Since(t0)))
		t0 = time.Now()
		back, err := core.DecodePrepared(bytes.NewReader(buf.Bytes()))
		dec = append(dec, float64(time.Since(t0)))
		if err != nil {
			return err
		}
		x, rep, err := back.Multiply(st.vals[0].a, st.vals[0].b)
		if err != nil {
			return err
		}
		r.check(x, st.vals[0].want, rep.Rounds)

		t0 = time.Now()
		if err := store.Put(st.fp, prep); err != nil {
			return err
		}
		put = append(put, float64(time.Since(t0)))
		t0 = time.Now()
		if _, err := store.Get(st.fp); err != nil {
			return err
		}
		get = append(get, float64(time.Since(t0)))
		runtime.KeepAlive(prep)
	}
	r.set("core.prepare_ms", median(prepare)/1e6)
	r.set("core.plan_encode_us", median(enc)/1e3)
	r.set("core.plan_decode_us", median(dec)/1e3)
	r.set("core.plan_heap_kb", median(heap))
	r.set("cache.accounted_frac", median(accounted))
	r.set("planstore.put_ms", median(put)/1e6)
	r.set("planstore.get_us", median(get)/1e3)

	ms := obsv.NewCounterSet()
	replayStore, err := planstore.Open(filepath.Join(r.cfg.scratch, "trace-replay-store"), churnStoreMB<<20, ms)
	if err != nil {
		return err
	}
	srv := service.NewServer(service.Config{CacheSize: churnCachePlans, Store: replayStore, Metrics: ms})
	defer srv.Close()
	ctx := context.Background()
	for s := len(in.hot) - 1; s >= 0; s-- {
		if err := r.serveChecked(ctx, srv, in.hot[s].vals[0]); err != nil {
			return err
		}
	}
	before := ms.Snapshot()
	calls := 0
	for start := time.Now(); time.Since(start) < 3*r.budget; calls++ {
		if err := r.serveChecked(ctx, srv, in.order[calls%len(in.order)]); err != nil {
			return err
		}
	}
	c := delta(before, ms.Snapshot())
	r.set("cache.hit_ratio", ratio(c[service.MetricCacheHits], int64(calls)))
	r.set("cache.evictions_per_mult", ratio(c[service.MetricCacheEvictions], int64(calls)))
	r.set("planstore.hit_ratio", ratio(c[planstore.MetricHits], c[planstore.MetricHits]+c[planstore.MetricMisses]))
	r.set("serve.compiles_per_mult", ratio(c[service.MetricCompiles], int64(calls)))
	return nil
}

func (r *layerRun) serveChecked(ctx context.Context, srv *service.Server, vs *valueSet) error {
	req, err := service.ParseWireMultiply(vs.wm)
	if err != nil {
		return err
	}
	resp, err := srv.Multiply(ctx, req)
	if err != nil {
		r.t.record(outcome{products: 1, err: err})
		return err
	}
	r.check(resp.X, vs.want, resp.Report.Rounds)
	return nil
}

// distLayers runs dist.Run back to back against two in-process workers on
// loopback listeners and reads the transport and plan-cache counters.
func (r *layerRun) distLayers() error {
	in, err := genDist(r.cfg.seed)
	if err != nil {
		return err
	}
	inst := in.st.inst
	prep, err := core.Prepare(inst.Ahat, inst.Bhat, inst.Xhat, core.Options{Ring: countingRing, Algorithm: distAlg})
	if err != nil {
		return err
	}
	var addrs []string
	var listeners []net.Listener
	var wg sync.WaitGroup
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
		wg.Wait() // each Serve returns once its listener is closed
	}()
	for w := 0; w < 2; w++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		listeners = append(listeners, l)
		addrs = append(addrs, l.Addr().String())
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = dist.Serve(l, dist.WorkerOptions{})
		}()
	}

	counters := map[string]int64{}
	var rounds int
	var model int64
	d, err := timeCalls(3*r.budget, func(i int) error {
		job := in.jobs[i%len(in.jobs)]
		as, bs := make([]*matrix.Sparse, len(job)), make([]*matrix.Sparse, len(job))
		for l, vs := range job {
			as[l], bs[l] = vs.a, vs.b
		}
		res, err := dist.Run(dist.RunConfig{
			Workers: addrs, Prep: prep, As: as, Bs: bs,
			N: inst.N, Ring: ringName, Partition: dist.PartitionBalanced,
		})
		if err != nil {
			return err
		}
		for l, vs := range job {
			r.check(res.Xs[l], vs.want, res.Stats.Rounds)
		}
		for k, v := range res.Counters {
			counters[k] += v
		}
		rounds += res.Stats.Rounds
		for _, b := range res.Stats.RoundBytes {
			model += b
		}
		return nil
	})
	if err != nil {
		return err
	}
	sent := counters[dist.CounterBytesSent]
	r.set("dist.run_ms", ms(d))
	r.set("dist.round_us", ratio(counters[dist.CounterRoundNS], int64(rounds))/1e3)
	r.set("dist.wire_bytes_per_round", ratio(sent, int64(rounds)))
	r.set("dist.flushes_per_round", ratio(counters[dist.CounterFlushes], int64(rounds)))
	r.set("dist.wire_model_ratio", ratio(sent, model))
	r.set("dist.plan_hit_ratio", ratio(counters[dist.CounterPlanHits], counters[dist.CounterPlanHits]+counters[dist.CounterPlanMisses]))
	return nil
}

// delta returns after − before for every counter in after.
func delta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
