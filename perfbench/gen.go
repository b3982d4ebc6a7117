package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"lbmm/internal/algo"
	"lbmm/internal/core"
	"lbmm/internal/graph"
	"lbmm/internal/matrix"
	"lbmm/internal/ring"
	"lbmm/internal/service"
	"lbmm/internal/workload"
)

// Every input of a run is generated here from the workload seed; the
// program under test only ever receives the generated bodies and values.
// Each value set's product is computed at generation time on the map
// engine (the reproduction engine the differential tests treat as the
// oracle), so a wrong product from the serving path is caught per request.

// The counting ring keeps every product exact, so "correct" is equality.
const ringName = "counting"

var countingRing = ring.Counting{}

// Shapes of the generated workloads.
const (
	hotN, hotD   = 48, 4 // workload.Blocks(48,4): the ROADMAP baseline shape
	hotValueSets = 64

	churnN, churnD     = 32, 4
	churnStructures    = 24 // M: the working set the Zipf mix draws from
	churnValueSets     = 4  // value sets per working-set structure
	churnFreshEvery    = 16 // every 16th request carries a never-seen structure
	churnZipfS         = 1.1
	churnRatePerSecond = 1500 // upper bound on replayed requests/s, sizes the fresh pool
	churnCachePlans    = churnStructures / 3
	churnStoreMB       = 1

	distN, distD = 64, 4
	distSeed     = 42 // the PowerLaw structure `lbmm run -workload powerlaw` uses
	distLanes    = 4  // k lanes per dist.Run job
	distJobs     = 8
	distAlg      = "lemma31"
)

// valueSet is one multiplication's values with its expected product.
type valueSet struct {
	a, b *matrix.Sparse
	want *matrix.Sparse
	wm   *service.WireMultiply
	body []byte // wm as the JSON body of POST /v1/multiply
}

// structure is one sparsity structure with the value sets drawn over it.
type structure struct {
	inst *graph.Instance
	fp   string
	vals []*valueSet
}

// serveOptions are the plan options the serving path resolves for a
// request that names only the ring.
func serveOptions() core.Options { return core.Options{Ring: countingRing} }

// newStructure draws count value sets over inst, computes their products
// on the map engine and encodes their request bodies.
func newStructure(inst *graph.Instance, count int, rng *rand.Rand, alg string) (*structure, error) {
	opts := serveOptions()
	opts.Algorithm = alg
	fp, err := core.Fingerprint(inst.Ahat, inst.Bhat, inst.Xhat, opts)
	if err != nil {
		return nil, err
	}
	opts.Engine = string(algo.EngineMap)
	oracle, err := core.Prepare(inst.Ahat, inst.Bhat, inst.Xhat, opts)
	if err != nil {
		return nil, fmt.Errorf("oracle plan: %w", err)
	}
	st := &structure{inst: inst, fp: fp}
	xhat := inst.Xhat.Entries()
	for v := 0; v < count; v++ {
		a := matrix.Random(inst.Ahat, countingRing, rng.Int63())
		b := matrix.Random(inst.Bhat, countingRing, rng.Int63())
		want, _, err := oracle.Multiply(a, b)
		if err != nil {
			return nil, fmt.Errorf("oracle product: %w", err)
		}
		wm := &service.WireMultiply{
			N: inst.N, Ring: ringName, Algorithm: alg,
			A: service.WireEntries(a), B: service.WireEntries(b), Xhat: xhat,
		}
		body, err := json.Marshal(wm)
		if err != nil {
			return nil, err
		}
		st.vals = append(st.vals, &valueSet{a: a, b: b, want: want, wm: wm, body: body})
	}
	return st, nil
}

// genHot builds the single hot structure and its value pool, shared by
// hot-http and stream-pipelined.
func genHot(seed int64) (*structure, error) {
	return newStructure(workload.Blocks(hotN, hotD), hotValueSets, rand.New(rand.NewSource(seed)), "")
}

// churnInputs is the plan-churn traffic the traced run replays: a working
// set of structures, a request order drawn from a Zipf mix over it, and
// never-seen structures at a fixed share of positions. The replay server
// caches a third of the working set and its store budget is below the
// plans the replay writes, so memory hits, store hits, compiles,
// evictions and store GC all happen.
type churnInputs struct {
	hot   []*structure
	fresh int // never-seen structures in order
	// order lists the requests: order[i] is the value set request i carries.
	order []*valueSet
}

// churnInstance returns structure number i of the plan-churn families,
// cycling PowerLaw, US, BD and AS supports with per-structure seeds.
func churnInstance(i int, seed int64) *graph.Instance {
	switch i % 4 {
	case 0:
		return workload.PowerLaw(churnN, churnD, seed)
	case 1:
		return workload.Instance(matrix.US, matrix.US, matrix.US, churnN, churnD, seed)
	case 2:
		return workload.Instance(matrix.BD, matrix.BD, matrix.BD, churnN, churnD, seed)
	default:
		return workload.Instance(matrix.AS, matrix.US, matrix.AS, churnN, churnD, seed)
	}
}

// genChurn builds enough plan-churn requests for a run of the given
// length. Structures are asserted pairwise distinct by core.Fingerprint:
// a duplicate would turn a "never-seen" request into a cache hit.
// (workload.BlocksShifted cannot supply distinct structures: it currently
// builds the same supports as workload.Blocks.)
func genChurn(seed int64, requests int) (*churnInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &churnInputs{}
	seen := map[string]int{}
	add := func(i int, structSeed int64, values int) (*structure, error) {
		st, err := newStructure(churnInstance(i, structSeed), values, rng, "")
		if err != nil {
			return nil, err
		}
		if j, dup := seen[st.fp]; dup {
			return nil, fmt.Errorf("plan-churn structures %d and %d share fingerprint %s", j, i, st.fp)
		}
		seen[st.fp] = i
		return st, nil
	}
	// The working set is fixed, like the hot-http structure, so the Zipf
	// head is the same plan in every run; the seed draws the values, the
	// request order and the never-seen structures.
	for i := 0; i < churnStructures; i++ {
		st, err := add(i, int64(i), churnValueSets)
		if err != nil {
			return nil, err
		}
		in.hot = append(in.hot, st)
	}
	zipf := rand.NewZipf(rng, churnZipfS, 1, churnStructures-1)
	for r := 0; r < requests; r++ {
		if r%churnFreshEvery == churnFreshEvery-1 {
			st, err := add(churnStructures+in.fresh, rng.Int63(), 1)
			if err != nil {
				return nil, err
			}
			in.fresh++
			in.order = append(in.order, st.vals[0])
			continue
		}
		st := in.hot[zipf.Uint64()]
		in.order = append(in.order, st.vals[rng.Intn(len(st.vals))])
	}
	return in, nil
}

// distInputs is the traced run's dist traffic: one plan and a pool of
// k-lane jobs.
type distInputs struct {
	st   *structure
	jobs [][]*valueSet
}

// genDist draws the job values from the seed; the plan's structure is
// fixed, so runs with different seeds time the same plan.
func genDist(seed int64) (*distInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	st, err := newStructure(workload.PowerLaw(distN, distD, distSeed), distLanes*distJobs, rng, distAlg)
	if err != nil {
		return nil, err
	}
	in := &distInputs{st: st}
	for j := 0; j < distJobs; j++ {
		in.jobs = append(in.jobs, st.vals[j*distLanes:(j+1)*distLanes])
	}
	return in, nil
}

// checkProduct reports whether a returned product equals the expected one.
func checkProduct(n int, got []service.WireEntry, want *matrix.Sparse) bool {
	x := matrix.NewSparse(n, countingRing)
	for _, e := range got {
		i, j := int(e[0]), int(e[1])
		if float64(i) != e[0] || float64(j) != e[1] || i < 0 || i >= n || j < 0 || j >= n {
			return false
		}
		x.Set(i, j, e[2])
	}
	return matrix.Equal(x, want)
}
