package service

import (
	"context"
	"sync"
	"testing"

	"lbmm/internal/core"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// TestLanePathTable runs every multiply entry point under every batching
// mode — off, static BatchSize 8 and BatchAdaptive — on a clean and on an
// always-faulting network. Each request is a lane through the same
// admission, plan lookup and group execution, so every cell must serve the
// map-engine oracle's products and read the same serve/served and
// serve/errors.
func TestLanePathTable(t *testing.T) {
	const k = 3
	r := ring.MinPlus{}
	inst := workload.Blocks(16, 4)
	opts := core.Options{Ring: r}
	oracle, err := core.Prepare(inst.Ahat, inst.Bhat, inst.Xhat, core.Options{Ring: r, Engine: "map"})
	if err != nil {
		t.Fatal(err)
	}
	as := make([]*matrix.Sparse, k)
	bs := make([]*matrix.Sparse, k)
	want := make([]*matrix.Sparse, k)
	for l := range as {
		as[l] = matrix.Random(inst.Ahat, r, int64(10*l+1))
		bs[l] = matrix.Random(inst.Bhat, r, int64(10*l+2))
		if want[l], _, err = oracle.Multiply(as[l], bs[l]); err != nil {
			t.Fatal(err)
		}
	}

	modes := []struct {
		name string
		cfg  Config
	}{
		{"unbatched", Config{}},
		{"static8", Config{BatchSize: 8}},
		{"adaptive", Config{BatchAdaptive: true}},
	}
	// Each entry point multiplies the k value sets and returns per-lane
	// products and errors.
	entries := []struct {
		name string
		run  func(srv *Server) ([]*matrix.Sparse, []error)
	}{
		{"Multiply", func(srv *Server) ([]*matrix.Sparse, []error) {
			xs, errs := make([]*matrix.Sparse, k), make([]error, k)
			var wg sync.WaitGroup
			for l := range xs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := srv.Multiply(context.Background(), &MultiplyRequest{A: as[l], B: bs[l], Xhat: inst.Xhat, Options: opts})
					if errs[l] = err; err == nil {
						xs[l] = resp.X
					}
				}()
			}
			wg.Wait()
			return xs, errs
		}},
		{"MultiplySubmit", func(srv *Server) ([]*matrix.Sparse, []error) {
			xs, errs := make([]*matrix.Sparse, k), make([]error, k)
			var wg sync.WaitGroup
			for l := range xs {
				wg.Add(1)
				err := srv.MultiplySubmit(context.Background(), &MultiplyRequest{A: as[l], B: bs[l], Xhat: inst.Xhat, Options: opts},
					func(resp *MultiplyResponse, err error) {
						defer wg.Done()
						if errs[l] = err; err == nil {
							xs[l] = resp.X
						}
					})
				if err != nil {
					errs[l] = err
					wg.Done()
				}
			}
			wg.Wait()
			return xs, errs
		}},
		{"MultiplyBatch", func(srv *Server) ([]*matrix.Sparse, []error) {
			lanes := make([]BatchLane, k)
			for l := range lanes {
				lanes[l] = BatchLane{A: as[l], B: bs[l]}
			}
			errs := make([]error, k)
			resp, err := srv.MultiplyBatch(context.Background(), &MultiplyBatchRequest{Lanes: lanes, Xhat: inst.Xhat, Options: opts})
			if err != nil {
				for l := range errs {
					errs[l] = err
				}
				return make([]*matrix.Sparse, k), errs
			}
			return resp.X, errs
		}},
	}
	for _, faulty := range []bool{false, true} {
		for _, mode := range modes {
			for _, entry := range entries {
				cfg := mode.cfg
				if faulty {
					cfg.FaultInjector = func(int) lbm.Injector { return dropAll() }
				}
				srv := NewServer(cfg)
				xs, errs := entry.run(srv)
				srv.Close()
				cell := mode.name + "/" + entry.name
				if faulty {
					cell += "/faulty"
				}
				for l := range xs {
					switch {
					case faulty && !lbm.IsFault(errs[l]):
						t.Errorf("%s: lane %d: err = %v, want a typed fault", cell, l, errs[l])
					case !faulty && errs[l] != nil:
						t.Errorf("%s: lane %d: %v", cell, l, errs[l])
					case !faulty && !matrix.Equal(xs[l], want[l]):
						t.Errorf("%s: lane %d: product differs from the map-engine oracle", cell, l)
					}
				}
				served, errored := int64(k), int64(0)
				if faulty {
					served, errored = 0, k
				}
				if m := srv.Metrics(); m[MetricServed] != served || m[MetricErrors] != errored {
					t.Errorf("%s: served=%d errors=%d, want %d/%d", cell, m[MetricServed], m[MetricErrors], served, errored)
				}
			}
		}
	}
}
