// Command perfbench is the repository's benchmark. It builds seeded inputs,
// drives the real `lbmm serve` and `lbmm worker` binaries over loopback,
// checks every product against the map-engine oracle and prints the
// end-to-end metrics of one workload; with -trace 1 it instead replays the
// same inputs through the public function of each layer and prints the
// per-layer metrics. See README.md for the workloads, the metrics and how
// to compare two commits.
//
// Run it through run.sh, which builds both binaries first:
//
//	bash perfbench/run.sh --workload hot-http --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// heldOutSeed is reserved for validating a performance claim: tune on
// other seeds, then confirm on this one (never used while tuning).
const heldOutSeed = 9001

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up serves the timed loop.
const setupReps = 15

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Units of the end-to-end metrics (BENCHMARK.json "end_to_end").
var endToEndUnits = map[string]string{
	"mult_per_s":     "1/s",
	"latency_p50_ms": "ms",
	"setup_s":        "s",
	"server_rss_mb":  "MiB",
	"model_rounds":   "rounds",
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed (equal seeds generate equal inputs)")
	seconds := fs.Int("seconds", 10, "measured seconds of the run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	bin := fs.String("lbmm", "", "path of the lbmm binary under test")
	scratch := fs.String("scratch", "", "directory for the run's files (plan stores, spans)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *bin == "" || *scratch == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (one of "+strings.Join(workloadNames, ", ")+
			"), -seconds >= 1, -trace 0|1, -lbmm and -scratch")
		return 2
	}
	dir := filepath.Join(*scratch, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := config{lbmm: *bin, scratch: dir, seed: *seed, seconds: time.Duration(*seconds) * time.Second}

	env := environment(*name, *seed, *trace)
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "perfbench env %s\n", envLine)

	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(cfg, *name, stdout)
	} else {
		res, err = endToEndRun(cfg, *name, stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: wrong products returned\n", *name)
		return 1
	}
	return 0
}

// endToEndRun sets the workload up setupReps times, then measures its
// closed loop for cfg.seconds.
func endToEndRun(cfg config, name string, out io.Writer) (*result, error) {
	b, err := workloads[name](cfg)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	defer b.close()
	setup, err := setupMedian(b)
	if err != nil {
		return nil, err
	}
	t := b.loop(cfg.seconds, nil)
	rss, err := b.rssMiB()
	if err != nil {
		return nil, err
	}
	w := t.windows()
	if t.completed == 0 || len(w.rate) < statWindows {
		return nil, fmt.Errorf("a window completed no product (%d of %d attempted completed)", t.completed, t.attempted)
	}
	values := map[string]float64{
		"mult_per_s":     median(w.rate),
		"latency_p50_ms": median(w.p50),
		"setup_s":        setup.Seconds(),
		"server_rss_mb":  rss,
		"model_rounds":   float64(t.rounds) / float64(t.completed),
	}
	perWindow := fmt.Sprintf("median over %d windows of %.3f s, >= %d samples each (%d in all)",
		statWindows, t.end.Sub(t.start).Seconds()/statWindows, w.minSamples, len(t.samples))
	notes := map[string]string{
		"mult_per_s":     fmt.Sprintf("%d products; %s", t.completed, perWindow),
		"latency_p50_ms": perWindow,
		"setup_s":        fmt.Sprintf("median of %d set-ups", setupReps),
		"server_rss_mb":  "peak VmHWM of the serving processes",
		"model_rounds":   "mean per product",
	}
	res := &result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, k := range sortedKeys(values) {
		res.Metrics[k] = metric{values[k], endToEndUnits[k]}
		fmt.Fprintf(out, "perfbench %s %-16s %14.6g %-7s %s\n", name, k, values[k], endToEndUnits[k], notes[k])
	}
	fmt.Fprintf(out, "perfbench %s %-16s %14.6g %-7s %d failed (%d wrong) of %d attempted\n",
		name, "error_rate", float64(t.failed)/float64(t.attempted), "fraction", t.failed, t.wrong, t.attempted)
	// Tail latencies are printed, not declared: across runs they follow the
	// host's scheduling noise more than the program (README.md).
	lat := t.latencies()
	fmt.Fprintf(out, "perfbench %s tail latency p90 %.4g ms, p99 %.4g ms over %d samples\n",
		name, ms(quantile(lat, 0.90)), ms(quantile(lat, 0.99)), len(lat))
	if s, ok := b.(interface{ servedBy() string }); ok {
		fmt.Fprintf(out, "perfbench %s served by %s\n", name, s.servedBy())
	}
	return res, nil
}

// setupMedian sets b up setupReps times, tearing down all but the last,
// and returns the median set-up time: process launch through the last
// warm-up request.
func setupMedian(b bench) (time.Duration, error) {
	var times []float64
	for r := 0; r < setupReps; r++ {
		if r > 0 {
			b.close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		t0 := time.Now()
		err := b.setup(ctx)
		cancel()
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, float64(time.Since(t0)))
	}
	return time.Duration(median(times)), nil
}

// environment is the reproducibility block printed with every result.
func environment(name string, seed int64, trace int) map[string]any {
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
	}
	return map[string]any{
		"workload":      name,
		"seed":          seed,
		"held_out_seed": heldOutSeed,
		"trace":         trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        commit + dirty,
		"source_sha256": sourceHash(),
	}
}

// sourceHash fingerprints the Go sources of the checkout (the working
// directory), which identifies the code under test where no commit id is
// available.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
