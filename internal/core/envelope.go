package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"lbmm/internal/algo"
	"lbmm/internal/lbm"
	"lbmm/internal/matrix"
)

// PreparedFormatVersion is the serialization version of the prepared-plan
// envelope. Bump it on any incompatible change to the envelope layout or to
// the inner snapshot; readers reject other versions with
// ErrEnvelopeVersion, so a store populated by one build is never
// misinterpreted by another.
const PreparedFormatVersion = 1

// preparedMagic guards against feeding arbitrary gob streams (including the
// other envelope kinds in this module) to DecodePrepared.
const preparedMagic = "lbmm.prep"

// ErrEnvelope reports a prepared-plan envelope that is structurally invalid:
// wrong magic, truncated or corrupt payload, or inner state that fails
// validation. Store readers treat it as "this entry is damaged" —
// quarantine and recompile, never serve.
var ErrEnvelope = errors.New("core: invalid prepared-plan envelope")

// ErrEnvelopeVersion reports an envelope written under a different format
// version (outer or inner). It is distinct from ErrEnvelope because the
// entry is not damaged — it is simply from another build generation — but
// the remedy is the same: recompile from structure.
var ErrEnvelopeVersion = errors.New("core: prepared-plan envelope version mismatch")

// preparedEnvelope is the on-disk frame of a serialized Prepared. The inner
// snapshot travels as an opaque byte payload rather than a nested gob
// stream: gob's decoder buffers reads, so two sequential decoders on one
// stream would fight over bytes.
type preparedEnvelope struct {
	Magic   string
	Version int
	// PlanVersion pins the format of the compiled plans embedded in the
	// payload (lbm.CompiledPlanFormatVersion at write time).
	PlanVersion int
	// Algorithm is the requested algorithm — fingerprint input, see
	// Prepared.Algorithm.
	Algorithm string
	Classes   [3]matrix.Class
	Band      Band
	D         int
	Payload   []byte
}

// Encode writes the prepared multiplication as a versioned envelope. Only
// the compiled execution state is serialized; a Prepared restored from the
// stream serves compiled multiplies identically and, like every plan
// prepared for the compiled engine, has no map-engine form (see
// algo.ErrNoMapForm).
func (p *Prepared) Encode(w io.Writer) error {
	if p == nil || p.inner == nil {
		return fmt.Errorf("core: nothing to encode")
	}
	var payload bytes.Buffer
	if err := p.inner.EncodeCompiled(&payload); err != nil {
		return fmt.Errorf("core: encode prepared: %w", err)
	}
	env := preparedEnvelope{
		Magic:       preparedMagic,
		Version:     PreparedFormatVersion,
		PlanVersion: lbm.CompiledPlanFormatVersion,
		Algorithm:   p.Algorithm,
		Classes:     p.Classes,
		Band:        p.Band,
		D:           p.D,
		Payload:     payload.Bytes(),
	}
	return gob.NewEncoder(w).Encode(&env)
}

// DecodePrepared restores a Prepared from a stream written by Encode. Any
// structural damage — bad magic, gob corruption, inner validation failure,
// metadata that disagrees with the decoded structure — returns an error
// wrapping ErrEnvelope; a clean version mismatch returns one wrapping
// ErrEnvelopeVersion. Callers (the plan store) quarantine on the former and
// silently recompile on either; a decoded plan is never served unchecked.
func DecodePrepared(r io.Reader) (*Prepared, error) {
	var env preparedEnvelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEnvelope, err)
	}
	if env.Magic != preparedMagic {
		return nil, fmt.Errorf("%w: magic %q (want %q)", ErrEnvelope, env.Magic, preparedMagic)
	}
	if env.Version != PreparedFormatVersion {
		return nil, fmt.Errorf("%w: envelope version %d (this build reads %d)",
			ErrEnvelopeVersion, env.Version, PreparedFormatVersion)
	}
	if env.PlanVersion != lbm.CompiledPlanFormatVersion {
		return nil, fmt.Errorf("%w: compiled-plan version %d (this build reads %d)",
			ErrEnvelopeVersion, env.PlanVersion, lbm.CompiledPlanFormatVersion)
	}
	inner, err := algo.DecodeCompiledPrepared(bytes.NewReader(env.Payload))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrEnvelope, err)
	}
	switch env.Algorithm {
	case "auto", "theorem42", "lemma31":
	default:
		return nil, fmt.Errorf("%w: algorithm %q", ErrEnvelope, env.Algorithm)
	}
	if env.D != inner.Inst.D {
		return nil, fmt.Errorf("%w: envelope d=%d but plan compiled for d=%d", ErrEnvelope, env.D, inner.Inst.D)
	}
	// Reclassify from the decoded supports rather than trusting the stored
	// bands: classification is cheap and derivable, and the stored copy only
	// serves readers that inspect envelopes without decoding payloads.
	p := &Prepared{inner: inner, D: env.D, Algorithm: env.Algorithm}
	p.Classes[0], p.Classes[1], p.Classes[2] = inner.Inst.Classify()
	p.Band = Classify(p.Classes[0], p.Classes[1], p.Classes[2])
	if p.Classes != env.Classes || p.Band != env.Band {
		return nil, fmt.Errorf("%w: stored classification %v/%v disagrees with structure %v/%v",
			ErrEnvelope, env.Classes, env.Band, p.Classes, p.Band)
	}
	return p, nil
}

// Fingerprint recomputes the content address of the prepared structure —
// the same key Fingerprint(ahat, bhat, xhat, opts) produced when the plan
// was first prepared. Store readers compare it against the file name to
// detect entries that decode cleanly but were stored under the wrong key.
func (p *Prepared) Fingerprint() (string, error) {
	if p == nil || p.inner == nil {
		return "", fmt.Errorf("core: no prepared structure to fingerprint")
	}
	inst := p.inner.Inst
	return Fingerprint(inst.Ahat, inst.Bhat, inst.Xhat, Options{
		Ring:      p.inner.R,
		D:         p.D,
		Algorithm: p.Algorithm,
	})
}
