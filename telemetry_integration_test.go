package repro_bench

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/train"
)

// withTelemetry swaps in a fresh registry, enables collection, and
// restores the previous state when the test ends, so the process-global
// telemetry switch never leaks between tests.
func withTelemetry(t *testing.T) *telemetry.Registry {
	t.Helper()
	r := telemetry.NewRegistry()
	prev := telemetry.SetDefault(r)
	telemetry.Enable()
	t.Cleanup(func() {
		telemetry.Disable()
		telemetry.SetDefault(prev)
	})
	return r
}

// TestTelemetryParityQATStep checks instrumentation parity for training:
// two identically seeded QAT networks stepped on the same batch, one with
// telemetry enabled and one without, must produce bit-identical losses
// and parameters. Telemetry may only observe the computation, never
// perturb it.
func TestTelemetryParityQATStep(t *testing.T) {
	run := func(instrument bool) (losses []float32, netOut nn.Module) {
		if instrument {
			r := telemetry.NewRegistry()
			prev := telemetry.SetDefault(r)
			telemetry.Enable()
			defer func() {
				telemetry.Disable()
				telemetry.SetDefault(prev)
			}()
		}
		net := benchQATNet(false, tensor.NewRNG(42))
		x, y := benchQATBatch(tensor.NewRNG(43))
		opt := train.NewSGD(0.01, 0.9, 1e-4)
		params := net.Params()
		for i := 0; i < 3; i++ {
			loss, _ := train.Step(net, x, y, opt, params)
			losses = append(losses, loss)
		}
		return losses, net
	}
	lossOff, netOff := run(false)
	lossOn, netOn := run(true)
	for i := range lossOff {
		if lossOff[i] != lossOn[i] {
			t.Fatalf("step %d loss diverged: disabled %v enabled %v", i, lossOff[i], lossOn[i])
		}
	}
	pOff, pOn := netOff.Params(), netOn.Params()
	for i := range pOff {
		for j := range pOff[i].W.Data {
			if pOff[i].W.Data[j] != pOn[i].W.Data[j] {
				t.Fatalf("param %s[%d] diverged: disabled %v enabled %v",
					pOff[i].Name, j, pOff[i].W.Data[j], pOn[i].W.Data[j])
			}
		}
	}
}

// TestTelemetryParityODQInference checks instrumentation parity for the
// ODQ inference path: the executor's outputs must be bit-identical with
// telemetry enabled and disabled.
func TestTelemetryParityODQInference(t *testing.T) {
	run := func(instrument bool) *tensor.Tensor {
		if instrument {
			r := telemetry.NewRegistry()
			prev := telemetry.SetDefault(r)
			telemetry.Enable()
			defer func() {
				telemetry.Disable()
				telemetry.SetDefault(prev)
			}()
		}
		conv, x := benchConvLayer()
		conv.Exec = core.NewExec(0.5)
		defer func() { conv.Exec = nil }()
		return conv.Forward(x, false)
	}
	off := run(false)
	on := run(true)
	if len(off.Data) != len(on.Data) {
		t.Fatalf("output size diverged: %d vs %d", len(off.Data), len(on.Data))
	}
	for i := range off.Data {
		if off.Data[i] != on.Data[i] {
			t.Fatalf("output[%d] diverged: disabled %v enabled %v", i, off.Data[i], on.Data[i])
		}
	}
}

// TestTelemetrySensitivityRatio pins the per-layer sensitivity-ratio
// telemetry to the executor's own profiler across the BenchmarkODQConv
// scenarios (~30%, ~60%, 100% sensitive): for each, a fresh registry must
// report layer.c.sensitivity_ratio equal to Exec.SensitiveFraction.
func TestTelemetrySensitivityRatio(t *testing.T) {
	conv, x := benchConvLayer()
	for _, p := range odqBenchGrid {
		// Bisect with telemetry off so probe runs don't pollute the ratio.
		th := thresholdForSensitivity(conv, x, p.target)
		t.Run(p.name, func(t *testing.T) {
			withTelemetry(t)
			e := core.NewExec(th, core.WithProfiling())
			conv.Exec = e
			defer func() { conv.Exec = nil }()
			conv.Forward(x, false)

			snap := telemetry.Snapshot()
			got, ok := snap.Gauges["layer.c.sensitivity_ratio"]
			if !ok {
				t.Fatalf("layer.c.sensitivity_ratio missing from snapshot (gauges: %v)", snap.Gauges)
			}
			want := e.SensitiveFraction()
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("%s: telemetry ratio %v != profiler fraction %v", p.name, got, want)
			}
			if p.target >= 1 && got != 1 {
				t.Fatalf("sens100 must be exactly 1, got %v", got)
			}
			// The raw counters must agree with the ratio they feed.
			sens := snap.Counters["layer.c.sensitive"]
			tot := snap.Counters["layer.c.outputs"]
			if tot == 0 || float64(sens)/float64(tot) != got {
				t.Fatalf("counter ratio %d/%d inconsistent with gauge %v", sens, tot, got)
			}
		})
	}
}

// TestTelemetryODQConvCounters checks the executor-level counters and
// spans emitted by one instrumented ODQ conv: conv/predictor/executor
// spans present, partial-product accounting consistent with the 2-bit
// predictor (one high×high MAC per tap) and the sparse executor (three
// partials per sensitive output).
func TestTelemetryODQConvCounters(t *testing.T) {
	// The executor-level counters are package-var handles bound to the
	// process-default registry at init, so measure deltas there instead of
	// swapping in a fresh registry (which only dynamic per-layer names and
	// spans would follow).
	r := telemetry.Default()
	telemetry.Enable()
	t.Cleanup(telemetry.Disable)
	r.ResetSpans()
	before := telemetry.Snapshot()

	conv, x := benchConvLayer()
	e := core.NewExec(0.5, core.WithProfiling())
	conv.Exec = e
	defer func() { conv.Exec = nil }()
	conv.Forward(x, false)

	snap := telemetry.Snapshot()
	if got := snap.Counters["odq.convs"] - before.Counters["odq.convs"]; got != 1 {
		t.Fatalf("odq.convs delta = %d, want 1", got)
	}
	pred := snap.Counters["odq.predictor.partial_products"] - before.Counters["odq.predictor.partial_products"]
	exec := snap.Counters["odq.executor.partial_products"] - before.Counters["odq.executor.partial_products"]
	profs := e.Profiles()
	if len(profs) != 1 {
		t.Fatalf("want 1 profile, got %d", len(profs))
	}
	lp := profs[0]
	macsPerOut := lp.TotalMACs / lp.TotalOutputs
	if want := lp.TotalOutputs * macsPerOut; pred != want {
		t.Fatalf("predictor partial products %d, want %d", pred, want)
	}
	if want := 3 * lp.SensitiveOutputs * macsPerOut; exec != want {
		t.Fatalf("executor partial products %d, want %d", exec, want)
	}

	names := map[string]bool{}
	for _, ev := range r.TraceEvents() {
		names[ev.Name] = true
	}
	for _, want := range []string{"odq.conv", "odq.predictor", "odq.executor", "nn.conv.forward"} {
		if !names[want] {
			t.Fatalf("trace missing span %q (have %v)", want, names)
		}
	}

	// The legacy int-GEMM predictor path still routes through the batched
	// GEMM kernels and must keep emitting their spans.
	conv.Exec = core.NewExec(0.5, core.WithIntGEMMPredictor())
	conv.Forward(x, false)
	names = map[string]bool{}
	for _, ev := range r.TraceEvents() {
		names[ev.Name] = true
	}
	for _, want := range []string{"gemm.pack", "gemm.kernel"} {
		if !names[want] {
			t.Fatalf("legacy path trace missing span %q (have %v)", want, names)
		}
	}
}

// ---------- Committed overhead snapshot ----------

// TelemetryCost is one disabled/enabled measurement pair.
type TelemetryCost struct {
	DisabledNs float64 `json:"disabled_ns"`
	EnabledNs  float64 `json:"enabled_ns"`
	// EnabledOverheadPct is (enabled-disabled)/disabled in percent.
	EnabledOverheadPct float64 `json:"enabled_overhead_pct"`
}

// TelemetryBenchSnapshot is the BENCH_telemetry.json schema. The micro
// section prices one instrumentation site; the macro section prices the
// two hot end-to-end paths the acceptance criteria name (QAT step, ODQ
// conv). The controlled measurement is EnabledOverheadPct — disabled and
// enabled runs interleaved in one process, so machine drift cancels —
// and it must stay under 2% (the disabled-path cost is strictly smaller
// still). The baseline comparison against the pre-instrumentation
// BENCH_train_gemm.json numbers is informational only: they were
// recorded in an earlier session, so cross-session
// drift (CPU frequency, co-tenants) dominates sub-percent effects.
type TelemetryBenchSnapshot struct {
	Micro map[string]TelemetryCost `json:"micro_per_site"`
	Macro map[string]TelemetryCost `json:"macro"`
	// BaselineNs holds the pre-instrumentation ns/op recorded by the
	// earlier benchmark snapshots on this machine, for the disabled-
	// overhead comparison; DisabledVsBaselinePct is the regression of
	// today's telemetry-disabled run against that baseline.
	BaselineNs            map[string]float64 `json:"baseline_ns"`
	DisabledVsBaselinePct map[string]float64 `json:"disabled_vs_baseline_pct"`
}

func costPair(disabled, enabled testing.BenchmarkResult) TelemetryCost {
	d, e := float64(disabled.NsPerOp()), float64(enabled.NsPerOp())
	return TelemetryCost{
		DisabledNs:         d,
		EnabledNs:          e,
		EnabledOverheadPct: 100 * (e - d) / d,
	}
}

// TestTelemetryBenchSnapshot regenerates BENCH_telemetry.json. Env-gated
// like the other benchmark snapshots so CI never depends on timing:
//
//	TELEMETRY_BENCH_SNAPSHOT=1 go test -run TestTelemetryBenchSnapshot -v .
func TestTelemetryBenchSnapshot(t *testing.T) {
	if os.Getenv("TELEMETRY_BENCH_SNAPSHOT") != "1" {
		t.Skip("set TELEMETRY_BENCH_SNAPSHOT=1 to regenerate BENCH_telemetry.json")
	}
	snap := &TelemetryBenchSnapshot{
		Micro:                 map[string]TelemetryCost{},
		Macro:                 map[string]TelemetryCost{},
		BaselineNs:            map[string]float64{},
		DisabledVsBaselinePct: map[string]float64{},
	}

	// Micro: price a single instrumentation site in both states.
	r := telemetry.NewRegistry()
	prev := telemetry.SetDefault(r)
	defer telemetry.SetDefault(prev)
	c := telemetry.GetCounter("bench.counter")
	h := telemetry.GetHistogram("bench.hist", telemetry.ExpBuckets(1, 2, 10))
	micro := map[string]func(){
		"counter_add":       func() { c.Add(1) },
		"histogram_observe": func() { h.Observe(3) },
		"span":              func() { telemetry.StartSpan("bench.span").End() },
	}
	for name, op := range micro {
		telemetry.Disable()
		dis := minOf3(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op()
			}
		})
		telemetry.Enable()
		en := minOf3(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op()
			}
		})
		telemetry.Disable()
		snap.Micro[name] = costPair(dis, en)
	}
	r.ResetSpans()

	// Macro: the two acceptance paths end to end. Sequential min-of-3
	// benchmark runs are too coarse here — shared-runner jitter between
	// the disabled and enabled passes swamps a sub-percent effect — so
	// each trial measures disabled and enabled back to back and the min
	// per state is taken across many interleaved trials.
	measurePair := func(op func(), iters, trials int) TelemetryCost {
		dBest, eBest := math.Inf(1), math.Inf(1)
		op() // warm pools and caches outside timing
		for tr := 0; tr < trials; tr++ {
			telemetry.Disable()
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				op()
			}
			if ns := float64(time.Since(t0)) / float64(iters); ns < dBest {
				dBest = ns
			}
			telemetry.Enable()
			t0 = time.Now()
			for i := 0; i < iters; i++ {
				op()
			}
			if ns := float64(time.Since(t0)) / float64(iters); ns < eBest {
				eBest = ns
			}
		}
		telemetry.Disable()
		telemetry.Default().ResetSpans()
		return TelemetryCost{
			DisabledNs:         dBest,
			EnabledNs:          eBest,
			EnabledOverheadPct: 100 * (eBest - dBest) / dBest,
		}
	}

	// QAT training step, batch 32 (the BenchmarkQATStep packed path).
	qatNet := benchQATNet(false, tensor.NewRNG(42))
	qatX, qatY := benchQATBatch(tensor.NewRNG(43))
	qatOpt := train.NewSGD(0.01, 0.9, 1e-4)
	qatParams := qatNet.Params()
	snap.Macro["qat_step_batch32"] = measurePair(func() {
		train.Step(qatNet, qatX, qatY, qatOpt, qatParams)
	}, 2, 20)

	// ODQ conv pinned at the ~30%-sensitive scenario (BenchmarkODQConv's
	// sens30 cell).
	convM, xM := benchConvLayer()
	th30 := thresholdForSensitivity(convM, xM, 0.30)
	convM.Exec = core.NewExec(th30)
	snap.Macro["odq_conv"] = measurePair(func() {
		convM.Forward(xM, false)
	}, 10, 40)
	convM.Exec = nil

	// Disabled-overhead check against the committed pre-instrumentation
	// baselines (generated on this same machine by the earlier snapshots).
	if ns, ok := baselineQATStepNs(t); ok {
		snap.BaselineNs["qat_step_batch32"] = ns
		snap.DisabledVsBaselinePct["qat_step_batch32"] =
			100 * (snap.Macro["qat_step_batch32"].DisabledNs - ns) / ns
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_telemetry.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("micro: %+v", snap.Micro)
	t.Logf("macro: %+v", snap.Macro)
	t.Logf("disabled vs baseline: %v", snap.DisabledVsBaselinePct)
}

// baselineQATStepNs reads the packed QAT-step ns/op from
// BENCH_train_gemm.json (recorded before the telemetry layer existed).
func baselineQATStepNs(t *testing.T) (float64, bool) {
	t.Helper()
	data, err := os.ReadFile("BENCH_train_gemm.json")
	if err != nil {
		return 0, false
	}
	var s TrainGemmBenchSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return 0, false
	}
	for _, rec := range s.Records {
		if rec.Section == "qat-step" && rec.Variant == "packed" {
			return float64(rec.NsPerOp), true
		}
	}
	return 0, false
}
