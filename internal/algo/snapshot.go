package algo

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"lbmm/internal/cluster"
	"lbmm/internal/fewtri"
	"lbmm/internal/graph"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
)

// ErrNoMapForm reports that a Prepared is compiled-only: it holds the
// lowered instruction streams but not the map-engine planning state (the
// layout, planned batches, the Lemma 3.1 job). Plans restored from a
// serialized snapshot never carry that state, and DropMapForm discards it
// from a fresh one. Requesting EngineMap on such a preparation fails with
// this error; only a preparation that kept its map form
// (core.Options.Engine "map") can run the reference engine.
var ErrNoMapForm = errors.New("algo: compiled-only prepared form has no map engine")

// wireLoadRef is the exported form of loadRef.
type wireLoadRef struct {
	I, J int32
	Ref  lbm.SlotRef
}

// wireMeta carries the preparation-time Result skeleton — the fields that
// are functions of the structure, not of any particular run. It is a
// separate struct rather than a zeroed Result because gob refuses types
// with unexported-only fields (Result.Profile) even when the pointer is
// nil.
type wireMeta struct {
	Name                string
	Batches             int
	Cluster             cluster.ExecStats
	Kappa               int
	Triangles, Residual int
}

// preparedWire is the gob form of a compiled-only Prepared. It carries the
// supports (so the decoded form can validate inputs and rebuild its
// instance), the ring identity, the lowered instruction state, and the
// structural metadata of the preparation — everything Multiply and
// MultiplyBatch need on the compiled engine, and nothing the map engine
// would need.
type preparedWire struct {
	Name string
	// Ring is the ring's Name(); RingP carries the GF(p) modulus, which the
	// name alone does not pin.
	Ring  string
	RingP int64
	N, D  int
	// ARows/BRows/XRows are the support row lists of Â, B̂, X̂.
	ARows, BRows, XRows [][]int32
	// Meta is the preparation-time Result skeleton (triangle counts, batch
	// counts, κ).
	Meta wireMeta
	// Sizes is the per-node arena geometry of the shared SlotSpace.
	Sizes        []int32
	LoadA, LoadB []wireLoadRef
	X            []wireLoadRef
	Phase1       []*cluster.CompiledBatch
	StagingClear []lbm.SlotRef
	Few          *fewtri.CompiledJob
}

// EncodeCompiled writes the prepared form's compiled state as a gob stream.
// It fails if the preparation has no compiled form (nothing worth
// persisting: re-planning is exactly as expensive as decoding would be).
func (p *Prepared) EncodeCompiled(w io.Writer) error {
	cp := p.compiled
	if cp == nil {
		return fmt.Errorf("algo: %q has no compiled form to encode", p.Name)
	}
	meta := wireMeta{
		Name:      p.meta.Name,
		Batches:   p.meta.Batches,
		Cluster:   p.meta.Cluster,
		Kappa:     p.meta.Kappa,
		Triangles: p.meta.Triangles,
		Residual:  p.meta.Residual,
	}
	pw := preparedWire{
		Name:         p.Name,
		Ring:         p.R.Name(),
		N:            p.Inst.N,
		D:            p.Inst.D,
		ARows:        p.Inst.Ahat.Rows,
		BRows:        p.Inst.Bhat.Rows,
		XRows:        p.Inst.Xhat.Rows,
		Meta:         meta,
		Sizes:        cp.sizes,
		LoadA:        exportRefs(cp.loadA),
		LoadB:        exportRefs(cp.loadB),
		X:            exportRefs(cp.x),
		Phase1:       cp.phase1,
		StagingClear: cp.stagingClear,
		Few:          cp.few,
	}
	if f, ok := p.R.(ring.GFp); ok {
		pw.RingP = f.P
	}
	return gob.NewEncoder(w).Encode(&pw)
}

// DecodeCompiledPrepared restores a Prepared from a stream written by
// EncodeCompiled. The result is compiled-only, like a fresh preparation
// after DropMapForm: Multiply and MultiplyBatch run exactly as on the form
// that was encoded, while EngineMap requests fail with ErrNoMapForm.
//
// Decoded state crosses a trust boundary (the plan store's files are
// outside the process), so everything is validated before an executor can
// touch it: supports are rebuilt with range and sortedness checks, load
// refs are matched one-to-one against the support entries, and every slot
// reference in every embedded program is bounds-checked against the arena
// geometry.
func DecodeCompiledPrepared(r io.Reader) (*Prepared, error) {
	var pw preparedWire
	if err := gob.NewDecoder(r).Decode(&pw); err != nil {
		return nil, fmt.Errorf("algo: decode prepared: %w", err)
	}
	rg, err := ringFromWire(pw.Ring, pw.RingP)
	if err != nil {
		return nil, fmt.Errorf("algo: decode prepared: %w", err)
	}
	if pw.D < 1 {
		return nil, fmt.Errorf("algo: decode prepared: sparsity parameter d=%d", pw.D)
	}
	ahat, err := matrix.SupportFromRows(pw.N, pw.ARows)
	if err != nil {
		return nil, fmt.Errorf("algo: decode prepared: Ahat: %w", err)
	}
	bhat, err := matrix.SupportFromRows(pw.N, pw.BRows)
	if err != nil {
		return nil, fmt.Errorf("algo: decode prepared: Bhat: %w", err)
	}
	xhat, err := matrix.SupportFromRows(pw.N, pw.XRows)
	if err != nil {
		return nil, fmt.Errorf("algo: decode prepared: Xhat: %w", err)
	}
	if len(pw.Sizes) != pw.N {
		return nil, fmt.Errorf("algo: decode prepared: %d arenas for %d nodes", len(pw.Sizes), pw.N)
	}
	for v, sz := range pw.Sizes {
		if sz < 0 {
			return nil, fmt.Errorf("algo: decode prepared: negative arena size at node %d", v)
		}
	}
	cp := &compiledPrepared{sizes: pw.Sizes}
	if cp.loadA, err = importRefs(pw.LoadA, ahat, pw.Sizes); err != nil {
		return nil, fmt.Errorf("algo: decode prepared: A loads: %w", err)
	}
	if cp.loadB, err = importRefs(pw.LoadB, bhat, pw.Sizes); err != nil {
		return nil, fmt.Errorf("algo: decode prepared: B loads: %w", err)
	}
	if cp.x, err = importRefs(pw.X, xhat, pw.Sizes); err != nil {
		return nil, fmt.Errorf("algo: decode prepared: X slots: %w", err)
	}
	for i, cb := range pw.Phase1 {
		if cb == nil {
			return nil, fmt.Errorf("algo: decode prepared: phase-1 batch %d missing", i)
		}
		if err := cb.ValidateRefs(pw.Sizes); err != nil {
			return nil, fmt.Errorf("algo: decode prepared: phase-1 batch %d: %w", i, err)
		}
	}
	cp.phase1 = pw.Phase1
	for _, ref := range pw.StagingClear {
		if err := checkSlotRef(ref, pw.Sizes); err != nil {
			return nil, fmt.Errorf("algo: decode prepared: staging sweep: %w", err)
		}
	}
	cp.stagingClear = pw.StagingClear
	if pw.Few == nil {
		return nil, fmt.Errorf("algo: decode prepared: phase-2 job missing")
	}
	if err := pw.Few.ValidateRefs(pw.Sizes); err != nil {
		return nil, fmt.Errorf("algo: decode prepared: phase-2 job: %w", err)
	}
	cp.few = pw.Few
	cp.finish(rg)

	p := &Prepared{
		Inst:     graph.NewInstance(pw.D, ahat, bhat, xhat),
		R:        rg,
		Name:     pw.Name,
		compiled: cp,
		meta: Result{
			Name:      pw.Meta.Name,
			Batches:   pw.Meta.Batches,
			Cluster:   pw.Meta.Cluster,
			Kappa:     pw.Meta.Kappa,
			Triangles: pw.Meta.Triangles,
			Residual:  pw.Meta.Residual,
		},
	}
	return p, nil
}

// exportRefs converts internal load refs to their wire form.
func exportRefs(refs []loadRef) []wireLoadRef {
	out := make([]wireLoadRef, len(refs))
	for i, lr := range refs {
		out[i] = wireLoadRef{I: lr.i, J: lr.j, Ref: lr.ref}
	}
	return out
}

// importRefs converts wire load refs back, insisting they enumerate sup's
// entries in exactly row-major order (the order compilePrepared emits and
// the batched loader's merge-walk depends on) with every slot in range.
func importRefs(refs []wireLoadRef, sup *matrix.Support, sizes []int32) ([]loadRef, error) {
	if len(refs) != sup.NNZ {
		return nil, fmt.Errorf("%d refs for %d support entries", len(refs), sup.NNZ)
	}
	out := make([]loadRef, len(refs))
	k := 0
	for i, row := range sup.Rows {
		for _, j := range row {
			lr := refs[k]
			if lr.I != int32(i) || lr.J != j {
				return nil, fmt.Errorf("ref %d is (%d,%d), want support entry (%d,%d)", k, lr.I, lr.J, i, j)
			}
			if err := checkSlotRef(lr.Ref, sizes); err != nil {
				return nil, fmt.Errorf("ref %d (%d,%d): %w", k, lr.I, lr.J, err)
			}
			out[k] = loadRef{i: lr.I, j: lr.J, ref: lr.Ref}
			k++
		}
	}
	return out, nil
}

// checkSlotRef bounds-checks one slot reference against the arena geometry.
func checkSlotRef(r lbm.SlotRef, sizes []int32) error {
	if r.Node < 0 || int(r.Node) >= len(sizes) {
		return fmt.Errorf("node %d out of range (n=%d)", r.Node, len(sizes))
	}
	if r.Slot < 0 || r.Slot >= sizes[r.Node] {
		return fmt.Errorf("slot %d out of range at node %d (%d slots)", r.Slot, r.Node, sizes[r.Node])
	}
	return nil
}

// ringFromWire reconstructs the ring a snapshot was prepared over. GF(p)
// carries its modulus explicitly — the name alone maps to the default
// modulus, which would silently change the arithmetic.
func ringFromWire(name string, p int64) (ring.Semiring, error) {
	if name == "gfp" {
		return ring.ParseGFp(p)
	}
	rg, err := matrix.RingByName(name)
	if err != nil {
		return nil, err
	}
	return rg, nil
}
