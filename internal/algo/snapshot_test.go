package algo

import (
	"bytes"
	"errors"
	"testing"

	"lbmm/internal/graph"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/workload"
)

// prepareFor builds a Prepared for an instance with the named algorithm.
func prepareFor(t *testing.T, r ring.Semiring, inst *graph.Instance, name string) *Prepared {
	t.Helper()
	var p *Prepared
	var err error
	switch name {
	case "lemma31":
		p, err = PrepareLemma31(r, inst)
	case "theorem42":
		p, err = PrepareTheorem42(r, inst, Theorem42Opts{})
	default:
		t.Fatalf("unknown algorithm %q", name)
	}
	if err != nil {
		t.Fatalf("prepare %s: %v", name, err)
	}
	return p
}

// TestSnapshotRoundTripDifferential checks that a decoded snapshot computes
// exactly what the original prepared form computes — scalar and batched —
// across workloads, rings and both algorithms.
func TestSnapshotRoundTripDifferential(t *testing.T) {
	cases := []struct {
		name string
		inst *graph.Instance
	}{
		{"blocks", workload.Blocks(24, 4)},
		{"mixed", workload.Mixed(28, 4, 7)},
		{"us", workload.Instance(matrix.US, matrix.US, matrix.US, 24, 3, 11)},
		{"hotpair", workload.HotPair(16)},
	}
	rings := []ring.Semiring{ring.Boolean{}, ring.MinPlus{}, ring.NewGFp(257), ring.Real{}}
	for _, tc := range cases {
		for _, r := range rings {
			for _, alg := range []string{"lemma31", "theorem42"} {
				t.Run(tc.name+"/"+r.Name()+"/"+alg, func(t *testing.T) {
					p := prepareFor(t, r, tc.inst, alg)

					var buf bytes.Buffer
					if err := p.EncodeCompiled(&buf); err != nil {
						t.Fatalf("encode: %v", err)
					}
					q, err := DecodeCompiledPrepared(bytes.NewReader(buf.Bytes()))
					if err != nil {
						t.Fatalf("decode: %v", err)
					}
					if q.Name != p.Name {
						t.Fatalf("name %q != %q", q.Name, p.Name)
					}
					if q.CompiledBytes() != p.CompiledBytes() {
						t.Fatalf("compiled bytes %d != %d", q.CompiledBytes(), p.CompiledBytes())
					}

					a := matrix.Random(tc.inst.Ahat, r, 1)
					b := matrix.Random(tc.inst.Bhat, r, 2)
					want, wres, err := p.Multiply(a, b)
					if err != nil {
						t.Fatalf("original multiply: %v", err)
					}
					got, gres, err := q.Multiply(a, b)
					if err != nil {
						t.Fatalf("restored multiply: %v", err)
					}
					if !matrix.Equal(got, want) {
						t.Fatalf("restored product differs from original")
					}
					if gres.Rounds != wres.Rounds {
						t.Fatalf("restored rounds %d != original %d", gres.Rounds, wres.Rounds)
					}
					if err := Verify(got, a, b, tc.inst.Xhat); err != nil {
						t.Fatalf("restored product wrong: %v", err)
					}

					// Batched lanes through the restored form.
					as := []*matrix.Sparse{a, matrix.Random(tc.inst.Ahat, r, 3)}
					bs := []*matrix.Sparse{b, matrix.Random(tc.inst.Bhat, r, 4)}
					wouts, _, err := p.MultiplyBatch(as, bs)
					if err != nil {
						t.Fatalf("original batch: %v", err)
					}
					gouts, _, err := q.MultiplyBatch(as, bs)
					if err != nil {
						t.Fatalf("restored batch: %v", err)
					}
					for l := range wouts {
						if !matrix.Equal(gouts[l], wouts[l]) {
							t.Fatalf("restored batch lane %d differs", l)
						}
					}
				})
			}
		}
	}
}

// TestSnapshotHasNoMapForm checks that map-engine requests on a
// compiled-only preparation — restored from a snapshot, or fresh after
// DropMapForm — fail with the typed ErrNoMapForm, scalar and batched, while
// the compiled engine still serves.
func TestSnapshotHasNoMapForm(t *testing.T) {
	inst := workload.Blocks(16, 4)
	r := ring.Counting{}
	p := prepareFor(t, r, inst, "lemma31")
	var buf bytes.Buffer
	if err := p.EncodeCompiled(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	restored, err := DecodeCompiledPrepared(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	dropped := prepareFor(t, r, inst, "lemma31")
	dropped.DropMapForm()
	a := matrix.Random(inst.Ahat, r, 1)
	b := matrix.Random(inst.Bhat, r, 2)
	for name, q := range map[string]*Prepared{"restored": restored, "dropped": dropped} {
		if _, _, err := q.MultiplyOn(EngineMap, a, b); !errors.Is(err, ErrNoMapForm) {
			t.Fatalf("%s: map multiply: err=%v, want ErrNoMapForm", name, err)
		}
		if _, _, err := q.MultiplyBatchOn(EngineMap, []*matrix.Sparse{a}, []*matrix.Sparse{b}); !errors.Is(err, ErrNoMapForm) {
			t.Fatalf("%s: map batch: err=%v, want ErrNoMapForm", name, err)
		}
		x, _, err := q.Multiply(a, b)
		if err != nil {
			t.Fatalf("%s: compiled multiply: %v", name, err)
		}
		if !matrix.Equal(x, matrix.MulReference(a, b, inst.Xhat)) {
			t.Fatalf("%s: compiled multiply: wrong product", name)
		}
	}
}

// TestSnapshotRejectsTampering checks the decoder's validation: flipped
// bytes either fail gob decoding or fail a structural check — they never
// produce a usable Prepared that silently computes garbage refs.
func TestSnapshotRejectsTampering(t *testing.T) {
	inst := workload.Blocks(16, 4)
	p := prepareFor(t, ring.Counting{}, inst, "lemma31")
	var buf bytes.Buffer
	if err := p.EncodeCompiled(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	raw := buf.Bytes()
	// Truncations must always fail.
	for _, n := range []int{0, 1, len(raw) / 2, len(raw) - 1} {
		if _, err := DecodeCompiledPrepared(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", n)
		}
	}
	// A GFp snapshot with a composite modulus must be rejected.
	pg := prepareFor(t, ring.NewGFp(257), inst, "lemma31")
	var gbuf bytes.Buffer
	if err := pg.EncodeCompiled(&gbuf); err != nil {
		t.Fatalf("encode gfp: %v", err)
	}
	q, err := DecodeCompiledPrepared(bytes.NewReader(gbuf.Bytes()))
	if err != nil {
		t.Fatalf("decode gfp: %v", err)
	}
	if f, ok := q.R.(ring.GFp); !ok || f.P != 257 {
		t.Fatalf("restored ring %#v, want GFp(257)", q.R)
	}
}
