// Package core implements ODQ — output-directed dynamic quantization — the
// primary contribution of the paper. Inputs and weights are quantized to
// k bits (4 in the paper) and split into high-order and low-order parts.
// A lightweight *sensitivity predictor* convolves only the high parts
// (I_HBS × W_HBS, INT2 MACs) and thresholds the partial result into a
// per-output sensitivity bit mask. The *result executor* then computes the
// remaining three partial products (Eq. 3) only for outputs predicted
// sensitive; insensitive outputs keep just the predictor term.
//
// The executor here is numerically exact with respect to that definition:
// sensitive outputs equal the full INT-k convolution bit-for-bit, while
// insensitive outputs carry only the high×high partial. The default
// execution path runs the predictor and the sparse executor on bit-planar
// AND+POPCNT kernels (internal/tensor.Bitplanes) — the software analogue
// of the paper's multi-precision PE array — and stays bit-identical to the
// legacy int-GEMM predictor (retained behind WithIntGEMMPredictor) and to
// the dense compute-then-select reference (WithDenseReference), because
// every integer reduction is exact and the float fusion is shared.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// ODQ telemetry handles. Partial-product counters mirror the paper's cost
// accounting: the predictor pays one high×high MAC per output tap, the
// executor pays the three remaining partials only for sensitive outputs.
var (
	mODQConvs         = telemetry.GetCounter("odq.convs")
	mODQPredMACs      = telemetry.GetCounter("odq.predictor.partial_products")
	mODQExecMACs      = telemetry.GetCounter("odq.executor.partial_products")
	mODQCacheHits     = telemetry.GetCounter("odq.wcache.hits")
	mODQCacheMisses   = telemetry.GetCounter("odq.wcache.misses")
	mODQInvalidations = telemetry.GetCounter("odq.wcache.invalidations")
)

// Exec is the ODQ convolution executor. All configuration is fixed at
// construction time through Option values; the only mutable state is the
// weight-code cache, the embedded Profiler, and the instrumentation
// accumulators, each guarded by its own lock — so one Exec is safe for
// concurrent Conv calls.
type Exec struct {
	// bits is the total quantization width (4 in the paper); predBits is
	// the width of the high-order part used by the sensitivity predictor
	// (2 in the paper).
	bits     int
	predBits int
	// threshold is the output-sensitivity threshold in units of each
	// sample's mean |predictor output| within the layer (the paper
	// derives thresholds from per-layer output distributions and then
	// uses one value for the whole network, §3/§6.4). An output is
	// sensitive when its |predictor partial| ≥ threshold × mean; 0 marks
	// everything sensitive. Per-sample normalization makes inference
	// batch-invariant (a sample's result never depends on its
	// batch-mates), which the serving layer relies on for bit-identical
	// dynamic batching. layerThresholds optionally overrides it per
	// layer for the per-layer ablation.
	threshold       float32
	layerThresholds map[string]float32
	// noWeightCache disables the per-layer weight-code cache; set during
	// threshold-aware retraining, when weights change every step.
	noWeightCache bool
	// collectPrecision additionally measures per-layer |float − ODQ|
	// precision loss (the §6.1 per-layer list), at the cost of a
	// reference convolution per layer.
	collectPrecision bool
	// dense selects the dense-compute-then-select reference path instead
	// of the sparse executor (parity tests, benchmarks).
	dense bool
	// noBitplane selects the legacy int-GEMM predictor and scalar sparse
	// executor instead of the bitplane kernels (benchmarks, ablation).
	noBitplane bool
	// workers caps result-generation parallelism; 0 means the full
	// shared pool, 1 forces serial execution.
	workers int

	quant.Profiler

	mu        sync.Mutex
	cacheGen  uint64
	wcache    map[*nn.Conv2D]*weightCodes
	precision map[string]*PrecisionStat
	precOrder []string

	distMu      sync.Mutex
	collectDist bool
	dist        []float32
}

// Option configures an Exec at construction time.
type Option func(*Exec)

// WithBits sets the total quantization width (default 4).
func WithBits(bits int) Option {
	return func(e *Exec) { e.bits = bits }
}

// WithPredBits sets the sensitivity-predictor width (default 2).
func WithPredBits(bits int) Option {
	return func(e *Exec) { e.predBits = bits }
}

// WithLayerThresholds overrides the network-wide threshold for specific
// conv layers (keyed by layer name). The map is copied.
func WithLayerThresholds(m map[string]float32) Option {
	return func(e *Exec) {
		cp := make(map[string]float32, len(m))
		for k, v := range m {
			cp[k] = v
		}
		e.layerThresholds = cp
	}
}

// WithPrecisionCollection measures per-layer |float − ODQ| loss on every
// Conv (costs one reference convolution per layer call).
func WithPrecisionCollection() Option {
	return func(e *Exec) { e.collectPrecision = true }
}

// WithoutWeightCache disables weight-code caching; use while weights are
// being retrained and change between steps.
func WithoutWeightCache() Option {
	return func(e *Exec) { e.noWeightCache = true }
}

// WithWorkers caps the result-generation parallelism at n goroutines
// (1 = serial; 0 / unset = the full shared pool), whether the executor
// splits a batch by sample or a single sample by output channel.
func WithWorkers(n int) Option {
	return func(e *Exec) { e.workers = n }
}

// WithProfiling enables per-layer profile recording from construction.
// Call Reset before the measured pass if earlier (calibration, training)
// Conv calls should not count.
func WithProfiling() Option {
	return func(e *Exec) { e.EnableProfiling() }
}

// WithMaskRecording enables profiling and retains per-output sensitivity
// masks for the accelerator simulator.
func WithMaskRecording() Option {
	return func(e *Exec) { e.EnableMaskRecording() }
}

// WithDenseReference switches result generation to the dense
// compute-then-select reference implementation. The sparse default is
// bit-identical; this path exists for parity tests and benchmarks.
func WithDenseReference() Option {
	return func(e *Exec) { e.dense = true }
}

// WithIntGEMMPredictor selects the legacy execution path — a batched
// int-GEMM predictor followed by the scalar sparse executor — instead of
// the default bitplane AND+POPCNT kernels. Bit-identical to the default;
// kept for benchmarks and as an ablation baseline.
func WithIntGEMMPredictor() Option {
	return func(e *Exec) { e.noBitplane = true }
}

// PrecisionStat accumulates per-layer precision loss of ODQ relative to
// the float convolution.
type PrecisionStat struct {
	Name  string
	Index int
	Sum   float64
	Count int64
	Max   float64
}

// Mean returns the average absolute precision loss.
func (p *PrecisionStat) Mean() float64 {
	if p.Count == 0 {
		return 0
	}
	return p.Sum / float64(p.Count)
}

// NewExec builds an ODQ executor with the paper's defaults (INT4 codes,
// 2-bit predictor) modified by the given options. It panics on an invalid
// bits/predBits combination.
func NewExec(threshold float32, opts ...Option) *Exec {
	e := &Exec{
		bits:      4,
		predBits:  2,
		threshold: threshold,
		wcache:    make(map[*nn.Conv2D]*weightCodes),
		precision: make(map[string]*PrecisionStat),
	}
	for _, o := range opts {
		o(e)
	}
	if e.bits < 2 || e.bits > 16 {
		panic(fmt.Sprintf("core: NewExec bits %d out of range [2,16]", e.bits))
	}
	if e.predBits < 1 || e.predBits >= e.bits {
		panic(fmt.Sprintf("core: NewExec predBits %d out of range [1,bits)", e.predBits))
	}
	return e
}

// Bits returns the total quantization width.
func (e *Exec) Bits() int { return e.bits }

// PredBits returns the sensitivity-predictor width.
func (e *Exec) PredBits() int { return e.predBits }

// Threshold returns the current network-wide sensitivity threshold (the
// threshold search in this package adjusts it between passes).
func (e *Exec) Threshold() float32 { return e.threshold }

// lowBits returns the width of the low-order part.
func (e *Exec) lowBits() int { return e.bits - e.predBits }

// weightCodes bundles a layer's cached high/low weight-code split with the
// bit-planar forms the default kernels consume (one row per output
// channel, InC·K·K lanes). Both code halves live in one backing array,
// stacked = [wh; wl] (2·OutC rows), and hi.Data and lo.Data are its two
// halves: the high-density executor branch multiplies the whole stack
// against the low-code im2col in one int-GEMM. The bitplanes are skipped
// on the legacy and dense paths, which read the row-major int32 codes
// directly.
type weightCodes struct {
	hi, lo     *tensor.IntTensor
	stacked    []int32
	hiBP, loBP *tensor.Bitplanes
}

func (e *Exec) buildWeightCodes(layer *nn.Conv2D) *weightCodes {
	q := quant.WeightCodes(layer.EffectiveWeight(), e.bits)
	size := len(q.Data)
	stacked := make([]int32, 2*size)
	quant.SplitRounded(stacked[:size], stacked[size:], q.Data, q.Bits, e.lowBits(), true)
	hiScale, loScale := e.splitScales(q.Scale)
	hi := &tensor.IntTensor{Shape: q.Shape, Data: stacked[:size:size], Scale: hiScale, Bits: e.predBits}
	lo := &tensor.IntTensor{Shape: q.Shape, Data: stacked[size:], Scale: loScale, Bits: e.lowBits() + 1}
	wc := &weightCodes{hi: hi, lo: lo, stacked: stacked}
	if !e.dense && !e.noBitplane {
		outC := hi.Shape[0]
		lanes := hi.Shape[1] * hi.Shape[2] * hi.Shape[3]
		wc.hiBP = tensor.NewBitplanes(outC, lanes, hi.Bits, true)
		wc.hiBP.PackRows(hi.Data)
		wc.loBP = tensor.NewBitplanes(outC, lanes, lo.Bits, true)
		wc.loBP.PackRows(lo.Data)
	}
	return wc
}

// splitScales returns the scales quant.SplitCodesRounded gives the high
// and low parts of codes quantized at scale.
func (e *Exec) splitScales(scale float32) (hi, lo float32) {
	return scale * float32(int32(1)<<uint(e.lowBits())), scale
}

// weights returns the cached weight codes for a layer. Quantization runs
// outside the lock; the result is stored only if no InvalidateCache
// intervened (generation check), so a retraining step can never have its
// invalidation undone by an in-flight Conv that read the old
// EffectiveWeight.
func (e *Exec) weights(layer *nn.Conv2D) *weightCodes {
	if e.noWeightCache {
		return e.buildWeightCodes(layer)
	}
	e.mu.Lock()
	if wc, ok := e.wcache[layer]; ok {
		e.mu.Unlock()
		mODQCacheHits.Inc()
		return wc
	}
	gen := e.cacheGen
	e.mu.Unlock()
	mODQCacheMisses.Inc()

	wc := e.buildWeightCodes(layer)

	e.mu.Lock()
	defer e.mu.Unlock()
	if cached, ok := e.wcache[layer]; ok {
		return cached
	}
	if e.cacheGen == gen {
		e.wcache[layer] = wc
	}
	return wc
}

// InvalidateCache drops cached weight codes. The retraining contract:
// call it after every weight mutation BEFORE issuing new Conv calls.
// Conv calls in flight across the invalidation may still return results
// from the pre-update weights, but generation tracking guarantees they
// cannot re-populate the cache with stale codes.
func (e *Exec) InvalidateCache() {
	mODQInvalidations.Inc()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cacheGen++
	e.wcache = make(map[*nn.Conv2D]*weightCodes)
}

// PrecisionStats returns per-layer precision-loss records in layer order.
func (e *Exec) PrecisionStats() []*PrecisionStat {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*PrecisionStat, 0, len(e.precOrder))
	for _, n := range e.precOrder {
		out = append(out, e.precision[n])
	}
	return out
}

// ResetPrecision clears the precision-loss records.
func (e *Exec) ResetPrecision() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.precision = make(map[string]*PrecisionStat)
	e.precOrder = nil
}

// fuse combines the predictor partial with the three executor partials
// for a sensitive output. Every execution path calls this single function,
// so the float rounding (including any FMA contraction the compiler
// chooses) is identical and the paths stay bit-exact with each other and
// with the original implementation.
func fuse(pred, hl, lh, ll int64, predScale, sHL, sLH, sLL float32) float32 {
	v := float32(pred) * predScale
	v += float32(hl)*sHL + float32(lh)*sLH + float32(ll)*sLL
	return v
}

// Conv implements nn.ConvExecutor: sensitivity prediction over the
// high-order parts followed by result generation for sensitive outputs.
func (e *Exec) Conv(x *tensor.Tensor, layer *nn.Conv2D) *tensor.Tensor {
	qx := quant.ActCodes(x, e.bits)
	out, _ := e.convQ(qx, layer, nil, x)
	return out
}

// convQ is the shared conv body over integer activation codes. With a nil
// epilogue it returns the raw float partial-sum tensor (bias is NOT
// applied — nn.Conv2D.Forward adds it, as before). With an epilogue it
// returns packed INT4 codes of the requantized activation instead, and no
// float tensor is materialized on the default path. xRef, when non-nil, is
// the original float input used for precision-loss collection.
func (e *Exec) convQ(qx *tensor.IntTensor, layer *nn.Conv2D, epi *Epilogue, xRef *tensor.Tensor) (*tensor.Tensor, *tensor.PackedI4) {
	spConv := telemetry.StartSpan("odq.conv")
	defer spConv.End()
	mODQConvs.Inc()
	n := qx.Shape[0]
	wc := e.weights(layer)
	wh, wl := wc.hi, wc.lo

	g := quant.AccumGeometry(qx, wh, layer.Stride, layer.Pad)
	perSample := g.TotalOutputs()
	total := n * perSample
	xhScale, xlScale := e.splitScales(qx.Scale)
	predScale := xhScale * wh.Scale
	th := e.threshold
	if v, ok := e.layerThresholds[layer.Name]; ok {
		th = v
	}
	sHL := xhScale * wl.Scale
	sLH := xlScale * wh.Scale
	sLL := xlScale * wl.Scale

	mask := make([]bool, total)
	var ev *epiEval
	var codes []uint8
	if epi != nil {
		ev = epi.eval()
		codes = tensor.GetUint8(total)
	}
	var out *tensor.Tensor
	if epi == nil || e.dense || e.noBitplane {
		out = tensor.New(n, g.OutC, g.OutH, g.OutW)
	}

	var sensitive int64
	if e.dense || e.noBitplane {
		// Legacy two-stage path: batched int-GEMM predictor, then dense
		// or scalar-sparse result generation, then (optionally) the
		// epilogue as a post-pass over the float tensor.
		xh, xl := quant.SplitCodesRounded(qx, e.lowBits(), false)
		spPred := telemetry.StartSpan("odq.predictor")
		predAcc := tensor.GetInt64(total)
		quant.ConvAccumInto(predAcc, xh, wh, layer.Stride, layer.Pad)
		for s := 0; s < n; s++ {
			e.maskSample(predAcc[s*perSample:(s+1)*perSample], mask[s*perSample:(s+1)*perSample], predScale, th)
		}
		sensitive = quant.MaskDensity(mask)
		spPred.End()

		spExec := telemetry.StartSpan("odq.executor")
		if e.dense {
			e.resultDense(out, predAcc, mask, xh, xl, wh, wl, layer, predScale, sHL, sLH, sLL)
		} else {
			e.resultSparse(out, predAcc, mask, xh, xl, wh, wl, g, predScale, sHL, sLH, sLL)
		}
		tensor.PutInt64(predAcc)
		spExec.End()
		if ev != nil {
			cols := g.ColCols()
			for i := range out.Data {
				codes[i] = ev.code(out.Data[i], (i/cols)%g.OutC)
			}
		}
	} else {
		sensitive = e.resultBitplane(out, codes, ev, mask, qx, wc, g, predScale, th, sHL, sLH, sLL)
	}
	if telemetry.Enabled() {
		macsPerOut := int64(g.ColRows())
		mODQPredMACs.Add(int64(total) * macsPerOut)
		mODQExecMACs.Add(3 * sensitive * macsPerOut)
	}

	e.Record(&quant.LayerProfile{
		Name:             layer.Name,
		Geom:             g,
		Batch:            n,
		TotalOutputs:     int64(total),
		SensitiveOutputs: sensitive,
		TotalMACs:        int64(n) * g.TotalMACs(),
		Mask:             mask,
	})

	if e.collectPrecision && xRef != nil && epi == nil {
		e.collectPrecisionLoss(xRef, out, layer, g)
	}
	var packed *tensor.PackedI4
	if epi != nil {
		packed = tensor.NewPackedI4(n, g.OutC, g.OutH, g.OutW)
		tensor.PackI4Into(codes[:total], packed.Data)
		tensor.PutUint8(codes)
	}
	return out, packed
}

// maskSample thresholds one sample's predictor accumulators into its
// sensitivity mask. The threshold is relative to the sample's mean
// |predictor output| in the layer (the paper derives its threshold from
// per-layer output distributions, §3); this keeps one network-wide
// threshold value meaningful across layers whose raw output scales
// differ. Normalizing per sample (not per batch) makes every sample's
// mask — and therefore its output — independent of whatever it happens to
// be batched with, so a dynamically batched serving pass is bit-identical
// to running each request alone.
func (e *Exec) maskSample(seg []int64, mseg []bool, predScale, th float32) {
	var meanAbs float64
	for _, a := range seg {
		v := float64(a) * float64(predScale)
		if v < 0 {
			v = -v
		}
		meanAbs += v
	}
	if len(seg) > 0 {
		meanAbs /= float64(len(seg))
	}
	cut := float32(meanAbs) * th
	for i, a := range seg {
		v := float32(a) * predScale
		if v < 0 {
			v = -v
		}
		if v >= cut {
			mseg[i] = true
		}
	}
	if e.collectDist {
		e.sampleDist(seg, predScale, float32(meanAbs))
	}
}

// bitplaneGEMMCutover is the realized-density point where the executor
// switches from per-output bitplane dot products to batched int-GEMM
// partials. Below it, skipping insensitive outputs wins; above it, the
// blocked (AVX2 where available) GEMM's throughput beats per-output
// scatter even though it computes everything. Both branches are exact
// integer arithmetic into the same fuse(), so the switch is invisible in
// the output — it only moves work.
const bitplaneGEMMCutover = 0.45

// execPool supplies the worker pool of the default execution path. It is a
// variable (not a direct DefaultPool call) so tests can substitute a
// multi-worker pool and exercise the sample fan-out even on single-CPU
// machines.
var execPool = tensor.DefaultPool

// resultBitplane is the default execution path. Per sample, one pass over
// the activation codes splits each input row into its high and low parts
// (quant.SplitRounded's rounding) and packs both into row bitplanes
// (tensor.RowBitplanes); the high rows are expanded into every output
// position's receptive-field planes by shift-and-mask
// (tensor.Im2colIntTPack — no int32 im2col is built), the sensitivity
// predictor runs as AND+POPCNT row products (tensor.BitplaneMulRow), and
// the executor computes the three remaining partials only as directed by
// the realized mask — fused per-output bitplane dots
// (tensor.BitplaneDot3) over the expanded low rows at low density, wide
// int-GEMM partials (weight codes × im2col, the same orientation the
// dense path uses) above bitplaneGEMMCutover. Only that GEMM branch
// makes the whole-sample int32 code split, which Im2colInt reads. Exact
// integer arithmetic end to end keeps it bit-identical to the int-GEMM
// paths; the shared fuse() keeps the float combination identical.
// Writes requantized codes directly when ev is non-nil (fused epilogue),
// float partial sums into out otherwise. Returns the sensitive count.
//
// The work split follows the batch: a batch of two or more samples fans
// out across the shared pool, one task per worker (capped by
// WithWorkers), each task taking its scratch once and pulling whole
// samples until none are left; a single sample splits its output
// channels across the pool instead. Each sample writes only its own
// slices of mask, out and codes, so the split never changes a bit.
func (e *Exec) resultBitplane(out *tensor.Tensor, codes []uint8, ev *epiEval, mask []bool,
	qx *tensor.IntTensor, wc *weightCodes, g tensor.ConvGeom,
	predScale, th, sHL, sLH, sLL float32) int64 {
	n := qx.Shape[0]
	rows, cols := g.ColRows(), g.ColCols()
	perSample := g.TotalOutputs()
	per := g.InC * g.InH * g.InW
	pool := execPool()
	outC := g.OutC
	whBP, wlBP := wc.hiBP, wc.loBP
	lowBits := e.lowBits()

	tasks := 1
	if n >= 2 {
		tasks = pool.Size()
		if e.workers > 0 && e.workers < tasks {
			tasks = e.workers
		}
		if tasks > n {
			tasks = n
		}
	}
	// A lone task (batch 1, a serial executor or a one-worker pool)
	// splits each sample's output channels instead.
	chanWorkers := e.workers
	if tasks > 1 {
		chanWorkers = 1
	}

	// sample runs the predictor and executor for sample s on one task's
	// scratch and returns its sensitive count.
	sample := func(s int, sc *bitplaneScratch) int64 {
		spPred := telemetry.StartSpan("odq.predictor")
		xq := qx.Data[s*per : (s+1)*per]
		// One pass over the sample's codes: split each input row into
		// its high and low parts and pack both into row bitplanes.
		for c := 0; c < g.InC; c++ {
			for h := 0; h < g.InH; h++ {
				row := xq[(c*g.InH+h)*g.InW : (c*g.InH+h+1)*g.InW]
				quant.SplitRounded(sc.hRow, sc.lRow, row, qx.Bits, lowBits, false)
				sc.xhRows.PackRow(c, h, sc.hRow)
				sc.xlRows.PackRow(c, h, sc.lRow)
			}
		}
		predAcc, xhBP := sc.predAcc, sc.xhBP
		tensor.Im2colIntTPack(sc.xhRows, g, xhBP)
		pool.ParallelLimited(chanWorkers, outC, func(oc int) {
			tensor.BitplaneMulRow(predAcc[oc*cols:(oc+1)*cols], whBP, oc, xhBP)
		})
		mseg := mask[s*perSample : (s+1)*perSample]
		e.maskSample(predAcc, mseg, predScale, th)
		spPred.End()

		sens := 0
		for _, m := range mseg {
			if m {
				sens++
			}
		}

		spExec := telemetry.StartSpan("odq.executor")
		defer spExec.End()
		// One branch per sample: wide int-GEMM partials above the
		// cutover, per-output bitplane dots below it.
		gemm := float64(sens) >= bitplaneGEMMCutover*float64(perSample)
		var hlAcc, lhAcc, llAcc []int64
		var xlBP *tensor.Bitplanes
		if gemm {
			// hl = wl × im2col(xh); lh and ll come from one GEMM of the
			// stacked [wh; wl] against im2col(xl), so the low-code
			// columns are packed once for both. Only this branch needs
			// the int32 split.
			if sc.col == nil {
				sc.xh = tensor.GetInt32(per)
				sc.xl = tensor.GetInt32(per)
				sc.col = tensor.GetInt32(rows * cols)
				sc.hlAcc = tensor.GetInt64(perSample)
				sc.lhllAcc = tensor.GetInt64(2 * perSample)
			}
			quant.SplitRounded(sc.xh, sc.xl, xq, qx.Bits, lowBits, false)
			tensor.Im2colInt(sc.xh, g, sc.col)
			tensor.GemmInt(wc.lo.Data, sc.col, sc.hlAcc, outC, rows, cols)
			tensor.Im2colInt(sc.xl, g, sc.col)
			tensor.GemmInt(wc.stacked, sc.col, sc.lhllAcc, 2*outC, rows, cols)
			hlAcc, lhAcc, llAcc = sc.hlAcc, sc.lhllAcc[:perSample], sc.lhllAcc[perSample:]
		} else {
			if sc.xlBP == nil {
				sc.xlBP = &tensor.Bitplanes{R: cols, L: rows, P: lowBits + 1, W: tensor.BitplaneWords(rows), Signed: true,
					Data: tensor.GetUint64(tensor.BitplaneSize(cols, rows, lowBits+1))}
			}
			xlBP = sc.xlBP
			tensor.Im2colIntTPack(sc.xlRows, g, xlBP)
		}
		sampleBase := s * perSample
		pool.ParallelLimited(chanWorkers, outC, func(oc int) {
			base := oc * cols
			for j := 0; j < cols; j++ {
				i := base + j
				var v float32
				switch {
				case !mseg[i]:
					v = float32(predAcc[i]) * predScale
				case gemm:
					v = fuse(predAcc[i], hlAcc[i], lhAcc[i], llAcc[i], predScale, sHL, sLH, sLL)
				default:
					hl, lh, ll := tensor.BitplaneDot3(xhBP, xlBP, j, whBP, wlBP, oc)
					v = fuse(predAcc[i], hl, lh, ll, predScale, sHL, sLH, sLL)
				}
				if ev != nil {
					codes[sampleBase+i] = ev.code(v, oc)
				} else {
					out.Data[sampleBase+i] = v
				}
			}
		})
		return int64(sens)
	}

	var next, sensitive atomic.Int64
	pool.ParallelLimited(tasks, tasks, func(int) {
		sc := newBitplaneScratch(g, e.predBits, lowBits+1)
		defer sc.release()
		for {
			s := int(next.Add(1)) - 1
			if s >= n {
				return
			}
			sensitive.Add(sample(s, sc))
		}
	})
	return sensitive.Load()
}

// bitplaneScratch is one resultBitplane task's pooled working set: one
// input row's high/low split, a sample's high and low row bitplanes, its
// predictor accumulators and packed high codes, plus the executor
// buffers of whichever branch its samples take. The branch buffers
// (including the int32 code split only the GEMM branch reads) are
// allocated on first use, so a task whose samples all land on one side
// never pays for the other. The always-used words share one pooled
// buffer.
type bitplaneScratch struct {
	hRow, lRow     []int32
	xhRows, xlRows *tensor.RowBitplanes
	words          []uint64
	predAcc        []int64
	xhBP           *tensor.Bitplanes

	xlBP           *tensor.Bitplanes
	xh, xl, col    []int32
	hlAcc, lhllAcc []int64
}

func newBitplaneScratch(g tensor.ConvGeom, hiBits, loBits int) *bitplaneScratch {
	rows, cols := g.ColRows(), g.ColCols()
	hiRowSize, loRowSize := tensor.RowBitplaneSize(g, hiBits), tensor.RowBitplaneSize(g, loBits)
	bpSize := tensor.BitplaneSize(cols, rows, hiBits)
	words := tensor.GetUint64(bpSize + hiRowSize + loRowSize)
	split := make([]int32, 2*g.InW)
	return &bitplaneScratch{
		hRow:    split[:g.InW],
		lRow:    split[g.InW:],
		xhRows:  tensor.NewRowBitplanes(g, hiBits, words[bpSize:bpSize+hiRowSize]),
		xlRows:  tensor.NewRowBitplanes(g, loBits, words[bpSize+hiRowSize:]),
		words:   words,
		predAcc: tensor.GetInt64(g.TotalOutputs()),
		xhBP: &tensor.Bitplanes{R: cols, L: rows, P: hiBits, W: tensor.BitplaneWords(rows),
			Data: words[:bpSize]},
	}
}

func (sc *bitplaneScratch) release() {
	tensor.PutUint64(sc.words)
	tensor.PutInt64(sc.predAcc)
	if sc.xlBP != nil {
		tensor.PutUint64(sc.xlBP.Data)
	}
	if sc.col != nil {
		tensor.PutInt32(sc.xh)
		tensor.PutInt32(sc.xl)
		tensor.PutInt32(sc.col)
		tensor.PutInt64(sc.hlAcc)
		tensor.PutInt64(sc.lhllAcc)
	}
}

// resultSparse is the legacy sparse result generator: the HL/LH/LL
// partials are computed only for sensitive outputs, as per-output scalar
// dot products over the transposed im2col matrix (one contiguous row per
// output position), parallel across output channels on the shared worker
// pool.
func (e *Exec) resultSparse(out *tensor.Tensor, predAcc []int64, mask []bool,
	xh, xl, wh, wl *tensor.IntTensor, g tensor.ConvGeom,
	predScale, sHL, sLH, sLL float32) {
	n := xh.Shape[0]
	rows, cols := g.ColRows(), g.ColCols()
	xhT := tensor.GetInt32(rows * cols)
	xlT := tensor.GetInt32(rows * cols)
	per := g.InC * g.InH * g.InW
	pool := tensor.DefaultPool()
	for s := 0; s < n; s++ {
		tensor.Im2colIntT(xh.Data[s*per:(s+1)*per], g, xhT)
		tensor.Im2colIntT(xl.Data[s*per:(s+1)*per], g, xlT)
		sampleBase := s * g.OutC * cols
		pool.ParallelLimited(e.workers, g.OutC, func(oc int) {
			whRow := wh.Data[oc*rows : (oc+1)*rows]
			wlRow := wl.Data[oc*rows : (oc+1)*rows]
			base := sampleBase + oc*cols
			for j := 0; j < cols; j++ {
				i := base + j
				if !mask[i] {
					out.Data[i] = float32(predAcc[i]) * predScale
					continue
				}
				xhRow := xhT[j*rows : (j+1)*rows]
				xlRow := xlT[j*rows : (j+1)*rows]
				var hl, lh, ll int64
				for p := 0; p < rows; p++ {
					xhv := int64(xhRow[p])
					xlv := int64(xlRow[p])
					whv := int64(whRow[p])
					wlv := int64(wlRow[p])
					hl += xhv * wlv
					lh += xlv * whv
					ll += xlv * wlv
				}
				out.Data[i] = fuse(predAcc[i], hl, lh, ll, predScale, sHL, sLH, sLL)
			}
		})
	}
	tensor.PutInt32(xhT)
	tensor.PutInt32(xlT)
}

// resultDense is the dense-compute-then-select reference: all three
// partials are computed for every output and discarded where the mask is
// false. Kept (behind WithDenseReference) as the parity oracle for the
// sparse paths.
func (e *Exec) resultDense(out *tensor.Tensor, predAcc []int64, mask []bool,
	xh, xl, wh, wl *tensor.IntTensor, layer *nn.Conv2D,
	predScale, sHL, sLH, sLL float32) {
	total := len(predAcc)
	hlAcc := tensor.GetInt64(total)
	lhAcc := tensor.GetInt64(total)
	llAcc := tensor.GetInt64(total)
	quant.ConvAccumInto(hlAcc, xh, wl, layer.Stride, layer.Pad)
	quant.ConvAccumInto(lhAcc, xl, wh, layer.Stride, layer.Pad)
	quant.ConvAccumInto(llAcc, xl, wl, layer.Stride, layer.Pad)
	for i := range predAcc {
		if mask[i] {
			out.Data[i] = fuse(predAcc[i], hlAcc[i], lhAcc[i], llAcc[i], predScale, sHL, sLH, sLL)
		} else {
			out.Data[i] = float32(predAcc[i]) * predScale
		}
	}
	tensor.PutInt64(hlAcc)
	tensor.PutInt64(lhAcc)
	tensor.PutInt64(llAcc)
}

func (e *Exec) collectPrecisionLoss(x, odqOut *tensor.Tensor, layer *nn.Conv2D, g tensor.ConvGeom) {
	ref := floatConv(x, layer.EffectiveWeight(), g)
	e.mu.Lock()
	defer e.mu.Unlock()
	stat, ok := e.precision[layer.Name]
	if !ok {
		stat = &PrecisionStat{Name: layer.Name, Index: len(e.precOrder)}
		e.precision[layer.Name] = stat
		e.precOrder = append(e.precOrder, layer.Name)
	}
	for i := range ref.Data {
		d := float64(ref.Data[i] - odqOut.Data[i])
		if d < 0 {
			d = -d
		}
		stat.Sum += d
		stat.Count++
		if d > stat.Max {
			stat.Max = d
		}
	}
}

// sampleDist subsamples predictor magnitudes (normalized by the layer's
// mean |predictor output|, i.e. in threshold units) for threshold
// initialization.
func (e *Exec) sampleDist(acc []int64, scale, meanAbs float32) {
	if meanAbs == 0 {
		return
	}
	e.distMu.Lock()
	defer e.distMu.Unlock()
	stride := len(acc)/4096 + 1
	for i := 0; i < len(acc); i += stride {
		v := float32(acc[i]) * scale / meanAbs
		if v < 0 {
			v = -v
		}
		e.dist = append(e.dist, v)
	}
}

// SensitiveFraction returns the overall fraction of outputs predicted
// sensitive across the recorded profiles.
func (e *Exec) SensitiveFraction() float64 {
	var sens, tot int64
	for _, p := range e.Profiles() {
		sens += p.SensitiveOutputs
		tot += p.TotalOutputs
	}
	if tot == 0 {
		return 0
	}
	return float64(sens) / float64(tot)
}

// floatConv is the reference float convolution used by instrumentation.
func floatConv(x, w *tensor.Tensor, g tensor.ConvGeom) *tensor.Tensor {
	n := x.Shape[0]
	rows, cols := g.ColRows(), g.ColCols()
	out := tensor.New(n, g.OutC, g.OutH, g.OutW)
	per := g.InC * g.InH * g.InW
	tensor.DefaultPool().ParallelN(n, func(s int) {
		buf := tensor.GetFloat32(rows * cols)
		tensor.Im2col(x.Data[s*per:(s+1)*per], g, buf)
		tensor.Gemm(w.Data, buf, out.Data[s*g.OutC*cols:(s+1)*g.OutC*cols], g.OutC, rows, cols)
		tensor.PutFloat32(buf)
	})
	return out
}

var _ nn.ConvExecutor = (*Exec)(nil)
