// Command odqbench is the repository's benchmark. One run measures one
// workload against the library's public APIs, checks its outputs, prints
// every metric by name with its unit, and ends with one JSON line:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with no
// per-layer timing installed. With -trace 1 the run measures the workload
// twice — untraced, then with timing wrappers around each layer's public
// calls — and reports the per-layer set, including the tracing overhead.
// NOTES.md says why each workload exists and which layers it stresses.
//
// Run it from the repository root:
//
//	bash odqbench/run.sh --workload serve-resnet20 --seed 1 --seconds 28 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workload is one named benchmark scenario.
type workload struct {
	name string
	run  func(rc runConfig) (*outcome, error)
	// primary is the end-to-end metric trace.overhead_frac compares
	// between the untraced and the traced run, and higherBetter its
	// direction.
	primary      string
	higherBetter bool
}

var workloads = []workload{
	{name: "serve-resnet20", run: runServe, primary: "p50_ms"},
	{name: "offline-vgg16-sparse", run: runOffline, primary: "images_per_s", higherBetter: true},
	{name: "train-resnet20-2w", run: runTrain, primary: "samples_per_s", higherBetter: true},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	weights string // directory holding weights.json and the model files (relative to the repository root)
}

// outcome is one measured run of a workload.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	// samples records how many observations stand behind each
	// percentile metric.
	samples map[string]int
	// report prints workload-specific tables (measured beside modeled
	// cost) after the metrics.
	report func()
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}}
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed: sets the inputs, their order and arrival times")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("need -seconds > 0 and -trace 0|1")
	}
	declared, err := loadDeclared()
	if err != nil {
		fatalf("%v", err)
	}
	rc := runConfig{seed: *seed, seconds: *seconds, weights: filepath.Join("odqbench", "weights")}

	printHeader(w.name, rc.seed, *trace == 1)
	var out *outcome
	if *trace == 0 {
		out, err = w.run(rc)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		out.e2e["peak_rss_mb"] = peakRSSMB()
	} else {
		out, err = tracedRun(w, rc)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
	}
	emit(out, declared, *trace == 1)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tracedRun measures the workload untraced and then traced with the same
// seed; the per-layer metrics come from the traced run and the relative
// cost of tracing from the pair.
func tracedRun(w workload, rc runConfig) (*outcome, error) {
	plain, err := w.run(rc)
	if err != nil {
		return nil, err
	}
	rc.traced = true
	tr, err := w.run(rc)
	if err != nil {
		return nil, err
	}
	base, with := plain.e2e[w.primary], tr.e2e[w.primary]
	overhead := (with - base) / base
	if w.higherBetter {
		overhead = (base - with) / with
	}
	tr.layer["trace.overhead_frac"] = overhead
	// Per-layer metrics the untraced run measured too (end-to-end
	// figures reported without a bound) come from the untraced run.
	for k, v := range plain.layer {
		tr.layer[k] = v
	}
	tr.attempted += plain.attempted
	tr.failed += plain.failed
	fmt.Printf("trace overhead on %s: untraced %.4g, traced %.4g\n", w.primary, base, with)
	return tr, nil
}

// emit prints the metric table and the final JSON line. The names and
// units are those BENCHMARK.json declares. Every workload measures every
// end-to-end metric; per-layer metrics of a layer the workload does not
// reach read 0: it did no work there.
func emit(out *outcome, declared *declaredMetrics, traced bool) {
	defs := declared.EndToEnd
	vals := out.e2e
	if traced {
		defs = declared.PerLayer
		vals = out.layer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && !traced {
			fatalf("end-to-end metric %q was not measured", d.Name)
		}
		metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		n := ""
		if c, ok := out.samples[d.Name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Printf("  %-40s %14.6g %-8s%s\n", d.Name, v, d.Unit, n)
	}
	for k := range vals {
		if _, ok := metrics[k]; !ok {
			fatalf("metric %q is not declared in BENCHMARK.json", k)
		}
	}
	if out.report != nil {
		out.report()
	}
	fmt.Printf("operations: attempted %d, failed %d\n", out.attempted, out.failed)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "odqbench: "+format+"\n", args...)
	os.Exit(1)
}

// timed runs f n times and returns the median wall time of one call.
func timed(n int, f func()) time.Duration {
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		f()
		d[i] = float64(time.Since(t0))
	}
	sort.Float64s(d)
	return time.Duration(d[n/2])
}
