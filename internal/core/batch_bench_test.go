package core_test

import (
	"fmt"
	"testing"

	"lbmm/internal/core"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// BenchmarkMultiplyBatch sweeps the lane count k of one batched walk on a
// single compiled plan and reports the per-lane cost: the throughput win
// dynamic batching (and the controller's MaxBatch default of 16) rests on.
func BenchmarkMultiplyBatch(b *testing.B) {
	r := ring.Real{}
	inst := workload.Instance(matrix.US, matrix.US, matrix.US, 64, 4, 42)
	prep, err := core.Prepare(inst.Ahat, inst.Bhat, inst.Xhat, core.Options{Ring: r, D: 4, Algorithm: "theorem42", Engine: "compiled"})
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 4, 16} {
		as := make([]*matrix.Sparse, k)
		bs := make([]*matrix.Sparse, k)
		for l := 0; l < k; l++ {
			as[l] = matrix.Random(inst.Ahat, r, int64(2*l+1))
			bs[l] = matrix.Random(inst.Bhat, r, int64(2*l+2))
		}
		b.Run(fmt.Sprintf("lanes=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := prep.MultiplyBatch(as, bs, core.ExecOpts{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/lane")
		})
	}
}
