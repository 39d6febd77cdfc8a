package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
)

// metricDef is one metric BENCHMARK.json declares.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declaredMetrics are the metric tables of BENCHMARK.json, the one
// record of the benchmark's metric names and units.
type declaredMetrics struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadDeclared reads BENCHMARK.json from the repository root.
func loadDeclared() (*declaredMetrics, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var d declaredMetrics
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

// printHeader records the host and revision every result was taken on.
func printHeader(workload string, seed int64, traced bool) {
	avx2, vpop := simdFlags()
	rev, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	fmt.Printf("# odqbench workload=%s seed=%d traced=%v\n", workload, seed, traced)
	fmt.Printf("# host: cpus=%d gomaxprocs=%d avx2=%v avx512_vpopcntdq=%v go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), avx2, vpop, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("# rev: %s dirty=%s\n", rev, dirty)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("getrusage: %v", err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile is the Harrell–Davis estimate of the q-quantile (0 < q < 1):
// a Beta((n+1)q, (n+1)(1−q))-weighted average of all order statistics.
// At the tails it leans on several neighbouring samples instead of one,
// so one stalled request moves a p99 far less than the plain order
// statistic would. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var sum, prev float64
	for i := 1; i <= n; i++ {
		c := betaInc(a, b, float64(i)/float64(n))
		sum += (c - prev) * s[i-1]
		prev = c
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction of the incomplete beta
// function by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const eps, tiny = 1e-14, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 500; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// timingBlocks is how many contiguous blocks quietQuantile splits a
// run's timing samples into.
const timingBlocks = 8

// Other tenants of a shared host only ever add time to the program's
// work, and on the 2-CPU development host the share they add drifts by
// ±20% over minutes: the median step time of the same training run read
// 107 ms in one run and 152 ms in a run two minutes later. A percentile
// over a whole run, or the median of block percentiles, measures that
// drift as much as the program. The two estimators below read the
// program's own cost from the stretches the host left alone.

// quietQuantile reports a timing percentile of samples taken in time
// order (an open loop, whose requests differ in arrival and batching):
// the q-quantile of the quietest of timingBlocks contiguous blocks, the
// block whose q-quantile is lowest. With 24 samples per block, as serve's
// base phase takes, a block's 0.99 estimate sits near the block's
// maximum. Fewer than ten samples per block fall back to the pooled
// quantile.
func quietQuantile(xs []float64, q float64) float64 {
	per := len(xs) / timingBlocks
	if per < 10 {
		return quantile(xs, q)
	}
	best := math.Inf(1)
	for b := 0; b < timingBlocks; b++ {
		end := (b + 1) * per
		if b == timingBlocks-1 {
			end = len(xs)
		}
		best = math.Min(best, quantile(xs[b*per:end], q))
	}
	return best
}

// floorOf is the fastest of repeated identical operations (a closed
// loop of same-sized batches or optimizer steps). Their spread is the
// host's, not the program's, so the floor is the steadiest reading of
// what one operation costs; a change that slows every operation moves
// it, a change that stalls only some of them does not.
func floorOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

func ms(d float64) float64 { return d / 1e6 } // ns → ms

// bitsEqual reports whether two float32 slices are bit-identical.
func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// crossEntropy is the softmax cross-entropy of one logit row.
func crossEntropy(logits []float32, label int) float64 {
	mx := math.Inf(-1)
	for _, v := range logits {
		mx = math.Max(mx, float64(v))
	}
	var sum float64
	for _, v := range logits {
		sum += math.Exp(float64(v) - mx)
	}
	return math.Log(sum) + mx - float64(logits[label])
}

func argmax(xs []float32) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}
