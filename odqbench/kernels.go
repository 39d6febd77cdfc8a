package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/energy"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// cutover mirrors the ODQ executor's switch from per-output bitplane
// dots to int-GEMM partials (realized density at or above it).
const cutover = 0.45

// kernelShape is one conv geometry and how often the workload's model
// runs it per image.
type kernelShape struct {
	g     tensor.ConvGeom
	count int
}

// kernelRow times one kernel at the given shapes.
type kernelRow struct {
	name   string
	shapes []kernelShape
	// bench prepares operands for g and returns one call, its op count
	// (multiply-accumulates) and the bytes it reads and writes.
	bench func(g tensor.ConvGeom, rng *rand.Rand) (call func(), ops, bytes float64)
}

// kernelRows times tensor.BitplaneDot3, BitplaneMulRow, GemmInt and Gemm
// at the conv shapes the workload hits, and reports mean ns, ops and
// bytes per call over the model's convs. dot3 runs at the convs whose
// realized density is below the cutover, gemm_int at the others, mulrow
// (the predictor) at every ODQ conv, and the float Gemm at floatConvs.
// A kernel the workload does not reach reports 0.
func kernelRows(out *outcome, profiles []*quant.LayerProfile, floatConvs []tensor.ConvGeom) {
	var dot3, gemmInt, mulrow, gemmF32 []kernelShape
	for _, p := range profiles {
		s := kernelShape{g: p.Geom, count: 1}
		mulrow = addShape(mulrow, s)
		if density(p) < cutover {
			dot3 = addShape(dot3, s)
		} else {
			gemmInt = addShape(gemmInt, s)
		}
	}
	for _, g := range floatConvs {
		gemmF32 = addShape(gemmF32, kernelShape{g: g, count: 1})
	}
	rows := []kernelRow{
		{"dot3", dot3, benchDot3},
		{"mulrow", mulrow, benchMulRow},
		{"gemm_int", gemmInt, benchGemmInt},
		{"gemm_f32", gemmF32, benchGemmF32},
	}
	rng := rand.New(rand.NewSource(1))
	for _, r := range rows {
		var ns, ops, bytes float64
		n := 0
		for _, s := range r.shapes {
			call, o, b := r.bench(s.g, rng)
			t := perCall(call)
			ns += t * float64(s.count)
			ops += o * float64(s.count)
			bytes += b * float64(s.count)
			n += s.count
		}
		if n == 0 {
			continue
		}
		out.layer["tensor."+r.name+"_ns"] = ns / float64(n)
		out.layer["tensor."+r.name+"_ops"] = ops / float64(n)
		out.layer["tensor."+r.name+"_bytes"] = bytes / float64(n)
		out.samples["tensor."+r.name+"_ns"] = n
	}
}

func addShape(xs []kernelShape, s kernelShape) []kernelShape {
	for i := range xs {
		if xs[i].g == s.g {
			xs[i].count += s.count
			return xs
		}
	}
	return append(xs, s)
}

// perCall is the median over five trials of the mean ns per call, each
// trial running the call for at least 5 ms.
func perCall(call func()) float64 {
	call() // warm caches and pools
	trials := make([]float64, 5)
	for i := range trials {
		n := 0
		t0 := time.Now()
		for time.Since(t0) < 5*time.Millisecond {
			call()
			n++
		}
		trials[i] = float64(time.Since(t0)) / float64(n)
	}
	return median(trials)
}

func codes(rng *rand.Rand, n int, lo, hi int32) []int32 {
	c := make([]int32, n)
	for i := range c {
		c[i] = lo + rng.Int31n(hi-lo+1)
	}
	return c
}

// planes packs random codes for rows×lanes at the executor's layout:
// high activation codes are unsigned 2-plane, the rest signed (weights
// high 2-plane, low 3-plane).
func planes(rng *rand.Rand, rows, lanes, p int, signed bool) *tensor.Bitplanes {
	bp := tensor.NewBitplanes(rows, lanes, p, signed)
	lo, hi := int32(0), int32(1)<<uint(p)-1
	if signed {
		lo, hi = -(int32(1) << uint(p-1)), int32(1)<<uint(p-1)-1
	}
	bp.PackRows(codes(rng, rows*lanes, lo, hi))
	return bp
}

func benchDot3(g tensor.ConvGeom, rng *rand.Rand) (func(), float64, float64) {
	lanes, cols := g.ColRows(), g.ColCols()
	xh, xl := planes(rng, cols, lanes, 2, false), planes(rng, cols, lanes, 3, true)
	wh, wl := planes(rng, g.OutC, lanes, 2, true), planes(rng, g.OutC, lanes, 3, true)
	j, oc := 0, 0
	var sink int64
	call := func() {
		hl, lh, ll := tensor.BitplaneDot3(xh, xl, j, wh, wl, oc)
		sink += hl + lh + ll
		j = (j + 1) % cols
		oc = (oc + 7) % g.OutC
	}
	_ = sink
	return call, 3 * float64(lanes), float64(10 * xh.W * 8)
}

func benchMulRow(g tensor.ConvGeom, rng *rand.Rand) (func(), float64, float64) {
	lanes, cols := g.ColRows(), g.ColCols()
	xh, wh := planes(rng, cols, lanes, 2, false), planes(rng, g.OutC, lanes, 2, true)
	dst := make([]int64, cols)
	oc := 0
	call := func() {
		tensor.BitplaneMulRow(dst, wh, oc, xh)
		oc = (oc + 1) % g.OutC
	}
	bytes := float64(cols*2*xh.W*8 + 2*xh.W*8 + cols*8)
	return call, float64(cols * lanes), bytes
}

func benchGemmInt(g tensor.ConvGeom, rng *rand.Rand) (func(), float64, float64) {
	m, k, n := g.OutC, g.ColRows(), g.ColCols()
	a, b := codes(rng, m*k, -4, 3), codes(rng, k*n, -4, 3)
	c := make([]int64, m*n)
	call := func() { tensor.GemmInt(a, b, c, m, k, n) }
	return call, float64(m * k * n), float64(4*m*k + 4*k*n + 8*m*n)
}

func benchGemmF32(g tensor.ConvGeom, rng *rand.Rand) (func(), float64, float64) {
	m, k, n := g.OutC, g.ColRows(), g.ColCols()
	a, b := make([]float32, m*k), make([]float32, k*n)
	for i := range a {
		a[i] = rng.Float32() - 0.5
	}
	for i := range b {
		b[i] = rng.Float32()
	}
	c := make([]float32, m*n)
	call := func() { tensor.Gemm(a, b, c, m, k, n) }
	return call, float64(m * k * n), float64(4 * (m*k + k*n + m*n))
}

func density(p *quant.LayerProfile) float64 {
	if p.TotalOutputs == 0 {
		return 0
	}
	return float64(p.SensitiveOutputs) / float64(p.TotalOutputs)
}

// convGeoms returns the geometry of every conv of net for an h×w input,
// in network order (convs run at the input size their stride chain
// leaves them).
func convGeoms(net nn.Module, h, w int) []tensor.ConvGeom {
	rec := quant.NewStaticExec(8, quant.WithStaticProfiling())
	nn.SetConvExec(net, rec)
	defer nn.SetConvExec(net, nil)
	net.Forward(tensor.New(1, 3, h, w), false)
	var gs []tensor.ConvGeom
	for _, p := range rec.Profiles() {
		gs = append(gs, p.Geom)
	}
	return gs
}

// modeled reports what ODQ realized on the workload's masks and what the
// paper's accelerator model (internal/sim, internal/energy) would spend
// on them, and prints it beside the measured per-conv wall time.
func modeled(out *outcome, profiles []*quant.LayerProfile, measuredMS func(layer string) float64) {
	if len(profiles) == 0 {
		return
	}
	images := float64(profiles[0].Batch)
	accel := sim.Table2Accels()["ODQ"]
	consts := energy.DefaultConstants()
	eb, nc := energy.SchemeEnergy(accel, profiles, consts)
	var sens, outs, macs int64
	type row struct {
		name          string
		dens, ms, cyc float64
		nj            float64
	}
	var rows []row
	for i, p := range profiles {
		sens += p.SensitiveOutputs
		outs += p.TotalOutputs
		macs += p.TotalMACs
		out.layer["core.sensitive_frac."+p.Name] = density(p)
		lc := nc.Layers[i]
		le := energy.NetworkEnergy(accel, &sim.NetworkCost{Accel: accel.Name, Layers: []sim.LayerCost{lc}}, consts)
		rows = append(rows, row{p.Name, density(p), measuredMS(p.Name), float64(lc.TotalCycles) / images, le.Total() / 1e3 / images})
	}
	out.layer["core.sensitive_frac"] = float64(sens) / float64(outs)
	out.layer["core.macs_per_image"] = float64(macs) / images
	out.layer["sim.cycles_per_image"] = float64(nc.TotalCycles()) / images
	out.layer["energy.uj_per_image"] = eb.Total() / 1e6 / images
	prev := out.report
	out.report = func() {
		if prev != nil {
			prev()
		}
		fmt.Printf("measured CPU time beside modeled ODQ accelerator cost, per image (%d images):\n", int(images))
		fmt.Printf("  %-14s %8s %12s %16s %12s\n", "layer", "density", "measured_ms", "modeled_cycles", "modeled_nJ")
		for _, r := range rows {
			fmt.Printf("  %-14s %8.3f %12.4f %16.0f %12.1f\n", r.name, r.dens, r.ms, r.cyc, r.nj)
		}
	}
}
