package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/odqbench/weights"
)

// This file holds the benchmark's tracing: wrappers that time the calls
// into a layer's public interface from outside it. None of them changes
// what the wrapped layer computes.

// spanStats accumulates wall time and the images that went through it.
type spanStats struct {
	ns     float64
	images int
	calls  int
	durs   []float64 // per-call ns, when kept
	sizes  []int     // per-call images, when kept
}

func (s *spanStats) add(d time.Duration, images int, keep bool) {
	s.ns += float64(d)
	s.images += images
	s.calls++
	if keep {
		s.durs = append(s.durs, float64(d))
		s.sizes = append(s.sizes, images)
	}
}

// msPerImage is the accumulated wall time per image in ms.
func (s *spanStats) msPerImage() float64 {
	if s == nil || s.images == 0 {
		return 0
	}
	return ms(s.ns) / float64(s.images)
}

// timedExec wraps an ODQ executor (an infer.Executor) and times every
// conv it runs, per layer.
type timedExec struct {
	inner infer.Executor
	mu    sync.Mutex
	conv  map[string]*spanStats
}

func newTimedExec(inner infer.Executor) *timedExec {
	return &timedExec{inner: inner, conv: map[string]*spanStats{}}
}

func (t *timedExec) Conv(x *tensor.Tensor, layer *nn.Conv2D) *tensor.Tensor {
	t0 := time.Now()
	out := t.inner.Conv(x, layer)
	d := time.Since(t0)
	t.mu.Lock()
	s := t.conv[layer.Name]
	if s == nil {
		s = &spanStats{}
		t.conv[layer.Name] = s
	}
	s.add(d, x.Shape[0], false)
	t.mu.Unlock()
	return out
}

func (t *timedExec) InvalidateCache() { t.inner.InvalidateCache() }

func (t *timedExec) reset() {
	t.mu.Lock()
	t.conv = map[string]*spanStats{}
	t.mu.Unlock()
}

// moduleTimes collects forward and backward wall time by module kind.
type moduleTimes struct {
	mu       sync.Mutex
	forward  map[string]*spanStats
	backward map[string]*spanStats
	keep     bool
}

func newModuleTimes(keep bool) *moduleTimes {
	return &moduleTimes{forward: map[string]*spanStats{}, backward: map[string]*spanStats{}, keep: keep}
}

func (mt *moduleTimes) add(table map[string]*spanStats, kind string, d time.Duration, images int) {
	mt.mu.Lock()
	s := table[kind]
	if s == nil {
		s = &spanStats{}
		table[kind] = s
	}
	s.add(d, images, mt.keep)
	mt.mu.Unlock()
}

func (mt *moduleTimes) reset() {
	mt.mu.Lock()
	mt.forward = map[string]*spanStats{}
	mt.backward = map[string]*spanStats{}
	mt.mu.Unlock()
}

// get returns the stats recorded for kind (nil when none).
func (mt *moduleTimes) get(backward bool, kind string) *spanStats {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	if backward {
		return mt.backward[kind]
	}
	return mt.forward[kind]
}

// durations copies the per-call forward times kept for kind, of the
// calls that took batch images (any batch when batch is 0).
func (mt *moduleTimes) durations(kind string, batch int) []float64 {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	s := mt.forward[kind]
	if s == nil {
		return nil
	}
	var ds []float64
	for i, d := range s.durs {
		if batch == 0 || s.sizes[i] == batch {
			ds = append(ds, d)
		}
	}
	return ds
}

// timedModule times Forward and Backward of the module it embeds;
// Params and Visit pass through, so executors and batch-norm hooks still
// find the wrapped layers.
type timedModule struct {
	nn.Module
	kind string
	rec  *moduleTimes
	n    int // batch of the last forward, for backward accounting
}

func (m *timedModule) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	t0 := time.Now()
	out := m.Module.Forward(x, train)
	m.n = x.Shape[0]
	m.rec.add(m.rec.forward, m.kind, time.Since(t0), m.n)
	return out
}

func (m *timedModule) Backward(grad *tensor.Tensor) *tensor.Tensor {
	t0 := time.Now()
	out := m.Module.Backward(grad)
	m.rec.add(m.rec.backward, m.kind, time.Since(t0), m.n)
	return out
}

// wrapLeaves replaces every leaf module under m with a timedModule of
// kind "conv" (nn.Conv2D) or "other" (batch-norm, activations, pools,
// the classifier), walking sequential and residual containers in place.
func wrapLeaves(m nn.Module, rec *moduleTimes) nn.Module {
	switch v := m.(type) {
	case *nn.Sequential:
		for i := range v.Modules {
			v.Modules[i] = wrapLeaves(v.Modules[i], rec)
		}
		return v
	case *nn.Residual:
		v.Body = wrapLeaves(v.Body, rec)
		if v.Shortcut != nil {
			v.Shortcut = wrapLeaves(v.Shortcut, rec)
		}
		return v
	case *nn.Conv2D:
		return &timedModule{Module: v, kind: "conv", rec: rec}
	}
	return &timedModule{Module: m, kind: "other", rec: rec}
}

// timedReducer times every gradient reduce and counts the bytes the
// fleet moves for it: each non-root batch gradient travels to the root
// and the summed gradient travels back to every non-root rank.
type timedReducer struct {
	dist.GradReducer
	durs  []float64
	bytes []float64
}

func (r *timedReducer) Reduce(step int64, groupSize int, local []dist.BatchGrad, sum []float32) ([]dist.BatchGrad, error) {
	t0 := time.Now()
	metas, err := r.GradReducer.Reduce(step, groupSize, local, sum)
	r.durs = append(r.durs, float64(time.Since(t0)))
	remote := groupSize - len(local) // gradients the root receives
	if r.Rank() != 0 {
		remote = len(local)
	}
	r.bytes = append(r.bytes, float64(4*len(sum)*(remote+r.World()-1)))
	return metas, err
}

// loadModel builds a stored model's architecture and loads its weights.
func loadModel(dir string, rec *weights.Model) (*nn.Sequential, error) {
	net, err := models.Build(rec.Name, modelConfig(rec))
	if err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(dir, rec.File))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := nn.Load(f, net); err != nil {
		return nil, fmt.Errorf("loading %s: %w", rec.File, err)
	}
	return net, nil
}

// denseReference is a session over a fresh copy of a stored model whose
// ODQ executor runs the dense compute-then-select reference, the
// repository's bit-exact parity oracle for the sparse and packed paths.
// An executor change that alters what ODQ computes fails against it.
func denseReference(dir string, rec *weights.Model) (*infer.Session, error) {
	net, err := loadModel(dir, rec)
	if err != nil {
		return nil, err
	}
	return infer.NewSessionFromExecutor(net, "odq", core.NewExec(rec.Threshold, core.WithDenseReference()), true), nil
}

func modelConfig(rec *weights.Model) models.Config {
	return models.Config{Classes: rec.Classes, Scale: rec.Width, QATBits: rec.QATBits, Seed: rec.InitSeed}
}

// evalPool is the labelled evaluation set every inference run serves in
// full. It is fixed — the workload seed only orders it and times its
// arrivals — so accuracy and loss compare across seeds.
func evalPool(n int) *dataset.Dataset {
	const evalDataSeed = 20231
	return dataset.SyntheticCIFAR10(n, evalDataSeed)
}

// firstConv is the geometry of a model's first conv, which runs in
// float (DoReFa first-layer convention) on every inference path.
func firstConv(rec *weights.Model) []tensor.ConvGeom {
	net, err := models.Build(rec.Name, modelConfig(rec))
	if err != nil {
		panic(err) // the record was built from this architecture
	}
	return convGeoms(net, 32, 32)[:1]
}

// setupMedian runs build k times, keeping the last result, and returns
// it with the median build time in seconds. Earlier results are passed
// to discard.
func setupMedian[T any](k int, build func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	d := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		d = append(d, time.Since(t0).Seconds())
		if i < k-1 {
			discard(v)
		}
		last = v
	}
	return last, median(d), nil
}
