package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"lbmm/internal/core"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// TestServerMultiplyCacheHit is the serving layer's core promise: the first
// request for a structure compiles, a second request with the same structure
// but different values is a cache hit, returns the correct product, and —
// because rounds depend on structure only — reports the identical round
// count.
func TestServerMultiplyCacheHit(t *testing.T) {
	srv := NewServer(Config{CacheSize: 4})
	ctx := context.Background()
	r := ring.Counting{}
	inst := workload.Blocks(32, 4)
	opts := core.Options{Ring: r}

	var resps [2]*MultiplyResponse
	for i := range resps {
		a := matrix.Random(inst.Ahat, r, int64(10*i+1))
		b := matrix.Random(inst.Bhat, r, int64(10*i+2))
		resp, err := srv.Multiply(ctx, &MultiplyRequest{A: a, B: b, Xhat: inst.Xhat, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		if want := matrix.MulReference(a, b, inst.Xhat); !matrix.Equal(resp.X, want) {
			t.Fatalf("request %d: wrong product", i+1)
		}
		resps[i] = resp
	}
	if resps[0].CacheHit {
		t.Error("first request reported a cache hit")
	}
	if !resps[1].CacheHit {
		t.Error("second request (same structure, new values) missed the cache")
	}
	if resps[0].Fingerprint != resps[1].Fingerprint {
		t.Error("same structure produced different fingerprints")
	}
	if resps[0].Report.Rounds != resps[1].Report.Rounds {
		t.Errorf("rounds differ across executions of one plan: %d vs %d",
			resps[0].Report.Rounds, resps[1].Report.Rounds)
	}
	m := srv.Metrics()
	if m[MetricCacheHits] != 1 || m[MetricCacheMisses] != 1 || m[MetricServed] != 2 {
		t.Errorf("metrics = %v, want 1 hit / 1 miss / 2 served", m)
	}
}

// TestServerPrepareWarms checks that warming via /v1/prepare makes the first
// Multiply for that structure a hit, and that the trace flag yields a
// per-request profile.
func TestServerPrepareWarms(t *testing.T) {
	srv := NewServer(Config{CacheSize: 4})
	ctx := context.Background()
	r := ring.Counting{}
	inst := workload.Blocks(32, 4)
	opts := core.Options{Ring: r}

	prep, err := srv.Prepare(ctx, &PrepareRequest{Ahat: inst.Ahat, Bhat: inst.Bhat, Xhat: inst.Xhat, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if prep.CacheHit {
		t.Error("first prepare reported a hit")
	}
	if !srv.Cache().Contains(prep.Fingerprint) {
		t.Fatal("prepare did not cache the plan")
	}

	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	resp, err := srv.Multiply(ctx, &MultiplyRequest{A: a, B: b, Xhat: inst.Xhat, Options: opts, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Error("multiply after prepare missed the cache")
	}
	if resp.Fingerprint != prep.Fingerprint {
		t.Error("prepare and multiply disagree on the fingerprint")
	}
	if resp.Profile == nil {
		t.Error("Trace: true returned no profile")
	} else if resp.Profile.Rounds != resp.Report.Rounds {
		t.Errorf("profile rounds %d != report rounds %d", resp.Profile.Rounds, resp.Report.Rounds)
	}
}

// TestServerLoadShed fills the single worker and the admission queue, then
// checks the next request is shed with ErrOverloaded before any work, and
// that a queued request beyond its deadline times out.
func TestServerLoadShed(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 1, Deadline: time.Minute})
	ctx := context.Background()

	// Occupy the only worker.
	release, err := srv.admit(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Fill the queue with one waiter.
	waiterCtx, cancelWaiter := context.WithCancel(ctx)
	waiterDone := make(chan error, 1)
	go func() {
		rel, err := srv.admit(waiterCtx)
		if err == nil {
			rel()
		}
		waiterDone <- err
	}()
	waitFor(t, func() bool { return srv.queued.Load() == 1 })

	// Queue full: the public API sheds without touching the cache.
	inst := workload.Blocks(16, 4)
	_, err = srv.Classify(ctx, &ClassifyRequest{Ahat: inst.Ahat, Bhat: inst.Bhat, Xhat: inst.Xhat})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("classify with full queue: err = %v, want ErrOverloaded", err)
	}
	if m := srv.Metrics(); m[MetricShed] != 1 {
		t.Errorf("shed counter = %d, want 1", m[MetricShed])
	}

	// A queued waiter whose caller hangs up is attributed to serve/canceled,
	// not serve/deadline_exceeded — the deadline never fired.
	cancelWaiter()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter: err = %v, want context.Canceled", err)
	}
	if m := srv.Metrics(); m[MetricCanceled] != 1 || m[MetricDeadlineExceeded] != 0 {
		t.Errorf("canceled = %d deadline = %d, want 1 / 0",
			m[MetricCanceled], m[MetricDeadlineExceeded])
	}

	// With the worker released, a short-deadline request that must queue
	// behind a held worker times out with DeadlineExceeded.
	shortCtx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := srv.admit(shortCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("short-deadline admit: err = %v, want DeadlineExceeded", err)
	}
	if m := srv.Metrics(); m[MetricDeadlineExceeded] != 1 || m[MetricCanceled] != 1 {
		t.Errorf("deadline = %d canceled = %d, want 1 / 1",
			m[MetricDeadlineExceeded], m[MetricCanceled])
	}

	release()
	if rel, err := srv.admit(ctx); err != nil {
		t.Errorf("admit after release: %v", err)
	} else {
		rel()
	}
}

// TestServerBurstOnIdleNotShed is the regression for shedding with free
// worker slots: admission may only count a request against QueueDepth after
// it fails to take a slot, so a burst of QueueDepth+1 requests on an idle
// server with enough workers is never shed.
func TestServerBurstOnIdleNotShed(t *testing.T) {
	srv := NewServer(Config{Workers: 4, QueueDepth: 1})
	ctx := context.Background()

	// The mechanism, deterministically: even with the waiter count racing
	// above the bound (simulated directly), a free slot admits immediately.
	srv.queued.Store(int64(srv.cfg.QueueDepth) + 3)
	rel, err := srv.admit(ctx)
	if err != nil {
		t.Fatalf("admit with free workers shed: %v", err)
	}
	rel()
	srv.queued.Store(0)

	// The scenario: a concurrent burst of Workers requests (> QueueDepth+1)
	// on an idle server must all be admitted.
	start := make(chan struct{})
	rels := make(chan func(), srv.cfg.Workers)
	errs := make(chan error, srv.cfg.Workers)
	for i := 0; i < srv.cfg.Workers; i++ {
		go func() {
			<-start
			rel, err := srv.admit(ctx)
			if err != nil {
				errs <- err
				return
			}
			rels <- rel
		}()
	}
	close(start)
	for i := 0; i < srv.cfg.Workers; i++ {
		select {
		case rel := <-rels:
			defer rel()
		case err := <-errs:
			t.Fatalf("burst request %d rejected on an idle server: %v", i, err)
		}
	}
	if m := srv.Metrics(); m[MetricShed] != 0 {
		t.Errorf("shed = %d on an idle burst, want 0", m[MetricShed])
	}
}

// TestServerAdmitMetricsHammer drives admit/release from many goroutines
// while concurrently scraping the metrics snapshot (the /metrics path) —
// run under -race this checks the gauges are published without data races,
// and afterwards both gauges must have settled to zero because they are set
// from the atomic results of the same operations they report.
func TestServerAdmitMetricsHammer(t *testing.T) {
	srv := NewServer(Config{Workers: 2, QueueDepth: 2, Deadline: time.Minute})
	ctx := context.Background()
	const (
		goroutines = 8
		laps       = 200
	)
	done := make(chan struct{})
	go func() { // concurrent scraper
		for {
			select {
			case <-done:
				return
			default:
				_ = srv.Metrics()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < laps; i++ {
				rel, err := srv.admit(ctx)
				if err != nil {
					if !errors.Is(err, ErrOverloaded) {
						t.Errorf("admit: %v", err)
						return
					}
					continue // shed under pressure is expected
				}
				rel()
			}
		}()
	}
	wg.Wait()
	close(done)
	m := srv.Metrics()
	if m[MetricQueueDepth] != 0 || m[MetricActiveWorkers] != 0 {
		t.Errorf("gauges did not settle: queue_depth=%d active=%d, want 0/0",
			m[MetricQueueDepth], m[MetricActiveWorkers])
	}
	if srv.queued.Load() != 0 || srv.active.Load() != 0 {
		t.Errorf("internal counters did not settle: queued=%d active=%d",
			srv.queued.Load(), srv.active.Load())
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerDeadlineExcludesCompile: Deadline bounds the wait for admission
// and the wait for a lane's outcome, not a cold compile. A request that
// joins a compile running three Deadlines long must still be served, with
// and without batching, and must not count as deadline_exceeded.
func TestServerDeadlineExcludesCompile(t *testing.T) {
	const deadline = 200 * time.Millisecond
	r := ring.Counting{}
	inst := workload.Blocks(16, 4)
	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	want := matrix.MulReference(a, b, inst.Xhat)
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"unbatched", Config{Deadline: deadline}},
		{"static8", Config{Deadline: deadline, BatchSize: 8}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			srv := NewServer(mode.cfg)
			defer srv.Close()
			fp, opts, err := planKey(a.Support(), b.Support(), inst.Xhat, core.Options{Ring: r})
			if err != nil {
				t.Fatal(err)
			}
			// Hold the plan's compile in flight past three Deadlines; the
			// request below joins it in the cache.
			started := make(chan struct{})
			go srv.cache.Get(fp, func() (*core.Prepared, error) {
				close(started)
				time.Sleep(3 * deadline)
				return core.Prepare(inst.Ahat, inst.Bhat, inst.Xhat, opts)
			})
			<-started
			resp, err := srv.Multiply(context.Background(), &MultiplyRequest{A: a, B: b, Xhat: inst.Xhat, Options: core.Options{Ring: r}})
			if err != nil {
				t.Fatalf("request behind a slow compile: %v", err)
			}
			if !matrix.Equal(resp.X, want) {
				t.Fatal("wrong product")
			}
			if m := srv.Metrics(); m[MetricServed] != 1 || m[MetricDeadlineExceeded] != 0 || m[MetricCacheJoins] != 1 {
				t.Errorf("served=%d deadline_exceeded=%d joins=%d, want 1/0/1",
					m[MetricServed], m[MetricDeadlineExceeded], m[MetricCacheJoins])
			}
		})
	}
}
