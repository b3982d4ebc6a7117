package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// lbmmBin is the lbmm binary the tests drive, built once by TestMain.
var lbmmBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	lbmmBin = filepath.Join(dir, "lbmm")
	build := exec.Command("go", "build", "-o", lbmmBin, "lbmm/cmd/lbmm")
	build.Stderr = os.Stderr
	code := 1
	if err := build.Run(); err == nil {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func testConfig(t *testing.T, seconds time.Duration) config {
	return config{lbmm: lbmmBin, scratch: t.TempDir(), seed: 3, seconds: seconds}
}

// declared is BENCHMARK.json, read from the checkout root.
type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) (workloads []string, units map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	units = map[string]string{}
	for _, m := range append(d.EndToEnd, d.PerLayer...) {
		units[m.Name] = m.Unit
	}
	for _, w := range d.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, units
}

// checkDeclared fails for any emitted metric that BENCHMARK.json does not
// declare under the same name and unit, and for any declared one missing.
func checkDeclared(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	_, units := readDeclared(t)
	for name, m := range got {
		if u, ok := units[name]; !ok || u != m.Unit {
			t.Errorf("emitted metric %s (%s) is not declared in BENCHMARK.json (declared unit %q)", name, m.Unit, u)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("metric %s was not emitted", name)
		}
	}
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	workloads, units := readDeclared(t)
	if !slices.Equal(workloads, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, runner has %v", workloads, workloadNames)
	}
	for _, table := range []map[string]string{endToEndUnits, perLayerUnits} {
		for name, unit := range table {
			if units[name] != unit {
				t.Errorf("metric %s: runner unit %q, BENCHMARK.json unit %q", name, unit, units[name])
			}
		}
	}
	if len(units) != len(endToEndUnits)+len(perLayerUnits) {
		t.Errorf("BENCHMARK.json declares %d metrics, the runner reports %d", len(units), len(endToEndUnits)+len(perLayerUnits))
	}
}

// TestEveryWorkloadSmoke runs each workload end to end for a second: many
// requests per run, so a bug that appears only from a workload's second
// iteration fails here.
func TestEveryWorkloadSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := endToEndRun(testConfig(t, time.Second), name, &out)
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted < 2 || res.Failed != 0 || !res.Correct {
				t.Fatalf("attempted %d, failed %d, correct %v; want >= 2 requests, none failed\n%s",
					res.Attempted, res.Failed, res.Correct, out.String())
			}
			checkDeclared(t, res.Metrics, endToEndUnits)
		})
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	var out bytes.Buffer
	res, err := tracedRun(testConfig(t, 2*time.Second), "hot-http", &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
		t.Fatalf("traced run: attempted %d, failed %d, correct %v", res.Attempted, res.Failed, res.Correct)
	}
	checkDeclared(t, res.Metrics, perLayerUnits)
}

// TestWrongProductIsCaught feeds the product check a corrupted expected
// product and shows that the request counts as wrong, failed, and makes
// the run incorrect.
func TestWrongProductIsCaught(t *testing.T) {
	b, err := newHotHTTP(testConfig(t, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	hb := b.(*httpBench)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := hb.setup(ctx); err != nil {
		t.Fatal(err)
	}
	defer hb.close()

	good := hb.hot.vals[0]
	if o := hb.post(hb.clients[0], good, nil); o.err != nil || o.wrong != 0 {
		t.Fatalf("untouched oracle: err %v, wrong %d", o.err, o.wrong)
	}
	bad := *good
	bad.want = good.want.Clone()
	for i, row := range bad.want.Rows {
		if len(row) > 0 {
			bad.want.Set(i, int(row[0].Col), row[0].Val+1)
			break
		}
	}
	o := hb.post(hb.clients[0], &bad, nil)
	if o.err != nil || o.wrong != 1 {
		t.Fatalf("corrupted oracle: err %v, wrong %d; want the product flagged wrong", o.err, o.wrong)
	}
	var tl tally
	tl.record(o)
	if tl.failed != 1 || tl.wrong != 1 || tl.completed != 0 {
		t.Fatalf("tally after a wrong product: %+v", tl)
	}
}
