package core

import (
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// The sparse mask-driven executor must be bit-identical to the dense
// compute-then-select reference for every shape and threshold: sensitive
// outputs carry the full INT-k result, insensitive ones the predictor
// term, with identical float rounding in both paths.

func TestSparseDenseParityRandomized(t *testing.T) {
	shapes := []struct {
		name           string
		inC, outC      int
		h, w           int
		k, stride, pad int
		batch          int
	}{
		{"square", 3, 4, 10, 10, 3, 1, 1, 1},
		{"stride2", 3, 5, 9, 7, 3, 2, 1, 2},
		{"no-pad", 2, 3, 8, 8, 3, 1, 0, 1},
		{"1x1", 4, 4, 5, 5, 1, 1, 0, 1},
		{"odd-channels", 5, 7, 6, 6, 3, 1, 1, 3},
		{"5x5-kernel", 2, 3, 12, 12, 5, 1, 2, 1},
		{"stride3-pad2", 3, 6, 11, 13, 3, 3, 2, 2},
	}
	thresholds := []float32{-1, 0, 0.25, 0.5, 1.0, 1e9}
	seed := int64(100)
	for _, sh := range shapes {
		for _, th := range thresholds {
			seed++
			rng := tensor.NewRNG(seed)
			conv := nn.NewConv2D("c", sh.inC, sh.outC, sh.k, sh.stride, sh.pad, false, rng)
			x := tensor.New(sh.batch, sh.inC, sh.h, sh.w)
			rng.FillUniform(x, 0, 1)

			conv.Exec = NewExec(th)
			sparse := conv.Forward(x, false)
			conv.Exec = NewExec(th, WithDenseReference())
			dense := conv.Forward(x, false)
			conv.Exec = nil

			if len(sparse.Data) != len(dense.Data) {
				t.Fatalf("%s th=%v: length %d vs %d", sh.name, th, len(sparse.Data), len(dense.Data))
			}
			for i := range sparse.Data {
				if sparse.Data[i] != dense.Data[i] {
					t.Fatalf("%s th=%v: output %d differs: sparse %v dense %v",
						sh.name, th, i, sparse.Data[i], dense.Data[i])
				}
			}
		}
	}
}

// withExecPool runs f with the executor's sample fan-out on a pool of the
// given size, so the parallel split is exercised on any machine.
func withExecPool(size int, f func()) {
	prev := execPool
	pool := tensor.NewPool(size)
	execPool = func() *tensor.Pool { return pool }
	defer func() { execPool = prev }()
	f()
}

// convRun is everything one executor produced for the same inputs.
type convRun struct {
	out      *tensor.Tensor
	packed   *tensor.PackedI4
	profiles []*quant.LayerProfile
}

// TestSparseSerialParallelParity pins worker-count and batch-split
// invariance at a batch larger than the pool: the serial executor
// (WithWorkers(1)), the default one (samples fanned out across the pool)
// and the dense reference agree bit for bit on both executor branches and
// on the packed epilogue path, with identical masks and sensitive counts.
func TestSparseSerialParallelParity(t *testing.T) {
	rng := tensor.NewRNG(41)
	conv := nn.NewConv2D("c", 4, 8, 3, 1, 1, true, rng)
	rng.FillUniform(conv.Bias.W, -0.2, 0.2)
	const batch = 16
	x := tensor.New(batch, 4, 16, 16)
	rng.FillUniform(x, 0, 1)
	px := tensor.NewPackedI4(batch, 4, 16, 16)
	codes := make([]uint8, px.Len())
	for i := range codes {
		codes[i] = uint8(rng.Intn(16))
	}
	tensor.PackI4Into(codes, px.Data)
	epi := &Epilogue{Conv: conv, Act: quant.NewRequant(4, 1)}

	branches := []struct {
		name string
		th   float32
		gemm bool // every sample above the cutover (else every sample below)
	}{
		{"gemm", 0, true},
		{"dot", 2, false},
	}
	variants := []struct {
		name string
		opts []Option
	}{
		{"serial", []Option{WithWorkers(1)}},
		{"default", nil},
		{"dense", []Option{WithDenseReference()}},
	}
	withExecPool(4, func() {
		for _, br := range branches {
			var runs []convRun
			for _, v := range variants {
				e := NewExec(br.th, append([]Option{WithMaskRecording()}, v.opts...)...)
				out := e.Conv(x, conv)
				packed := e.ConvPacked(px, conv, epi)
				runs = append(runs, convRun{out, packed, e.Profiles()})
			}
			checkBranch(t, br.name, runs[0].profiles[0], br.gemm)
			for i, r := range runs[1:] {
				compareRuns(t, br.name+"/"+variants[i+1].name, runs[0], r)
			}
		}
	})
}

// checkBranch asserts every sample's realized density lands on the
// intended side of bitplaneGEMMCutover.
func checkBranch(t *testing.T, name string, p *quant.LayerProfile, gemm bool) {
	t.Helper()
	per := p.Geom.TotalOutputs()
	for s := 0; s*per < len(p.Mask); s++ {
		sens := 0
		for _, m := range p.Mask[s*per : (s+1)*per] {
			if m {
				sens++
			}
		}
		if above := float64(sens) >= bitplaneGEMMCutover*float64(per); above != gemm {
			t.Fatalf("%s: sample %d density %.2f is on the wrong side of the cutover", name, s, float64(sens)/float64(per))
		}
	}
}

func compareRuns(t *testing.T, name string, want, got convRun) {
	t.Helper()
	for i := range want.out.Data {
		if got.out.Data[i] != want.out.Data[i] {
			t.Fatalf("%s: output %d differs: %v vs %v", name, i, got.out.Data[i], want.out.Data[i])
		}
	}
	for i := range want.packed.Data {
		if got.packed.Data[i] != want.packed.Data[i] {
			t.Fatalf("%s: packed byte %d differs: %#x vs %#x", name, i, got.packed.Data[i], want.packed.Data[i])
		}
	}
	if len(got.profiles) != len(want.profiles) {
		t.Fatalf("%s: %d profiles, want %d", name, len(got.profiles), len(want.profiles))
	}
	for l, wp := range want.profiles {
		gp := got.profiles[l]
		if gp.SensitiveOutputs != wp.SensitiveOutputs || gp.TotalOutputs != wp.TotalOutputs {
			t.Fatalf("%s: layer %s sensitive %d/%d, want %d/%d", name, wp.Name,
				gp.SensitiveOutputs, gp.TotalOutputs, wp.SensitiveOutputs, wp.TotalOutputs)
		}
		if len(gp.Mask) != len(wp.Mask) {
			t.Fatalf("%s: layer %s mask length %d, want %d", name, wp.Name, len(gp.Mask), len(wp.Mask))
		}
		for i := range wp.Mask {
			if gp.Mask[i] != wp.Mask[i] {
				t.Fatalf("%s: layer %s mask bit %d differs", name, wp.Name, i)
			}
		}
	}
}

// TestInitialThresholdSerialParallel pins that the threshold percentiles
// do not depend on the sample split: concurrent samples append to the
// distribution in any order, and InitialThreshold sorts before reading.
func TestInitialThresholdSerialParallel(t *testing.T) {
	net := models.ResNet(20, models.Config{Classes: 10, Scale: 0.25, Seed: 9})
	ds := dataset.SyntheticCIFAR10(8, 10)
	x, _ := ds.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})
	withExecPool(4, func() {
		for _, pct := range []float64{0.1, 0.5, 0.9, 0.99} {
			serial := NewExec(0.5, WithWorkers(1)).InitialThreshold(net, x, pct)
			parallel := NewExec(0.5).InitialThreshold(net, x, pct)
			if serial != parallel {
				t.Fatalf("percentile %v: serial %v, parallel %v", pct, serial, parallel)
			}
		}
	})
}

func TestSparseMatchesStaticWhenAllSensitive(t *testing.T) {
	// End-to-end cross-check against an independent implementation: at
	// threshold -1 the sparse path must reproduce the full INT4 conv.
	rng := tensor.NewRNG(42)
	conv := nn.NewConv2D("c", 3, 6, 3, 2, 1, false, rng)
	x := tensor.New(2, 3, 9, 9)
	rng.FillUniform(x, 0, 1)
	conv.Exec = NewExec(-1)
	got := conv.Forward(x, false)
	conv.Exec = quant.NewStaticExec(4)
	want := conv.Forward(x, false)
	conv.Exec = nil
	if d := tensor.MaxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("all-sensitive sparse ODQ deviates from static INT4 by %v", d)
	}
}

// TestConcurrentConvSharedExec drives one Exec from many goroutines (run
// under -race via make verify). It exercises the weight cache, profiler
// and scratch pools concurrently, interleaved with cache invalidation; the
// batch exceeds the pool size, so every call also fans its samples out
// across the pool while the other callers are nested inside it.
func TestConcurrentConvSharedExec(t *testing.T) {
	rng := tensor.NewRNG(43)
	conv := nn.NewConv2D("c", 8, 8, 3, 1, 1, false, rng)
	x := tensor.New(16, 8, 16, 16)
	rng.FillUniform(x, 0, 1)

	withExecPool(4, func() {
		e := NewExec(0.4, WithMaskRecording())
		want := e.Conv(x, conv)

		const workers = 8
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for iter := 0; iter < 4; iter++ {
					got := e.Conv(x, conv)
					for i := range got.Data {
						if got.Data[i] != want.Data[i] {
							t.Errorf("worker %d iter %d: output %d differs", w, iter, i)
							return
						}
					}
				}
			}(w)
		}
		// Concurrent invalidation must not corrupt results (weights are not
		// mutated here, so outputs stay identical regardless of
		// interleaving).
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				e.InvalidateCache()
			}
		}()
		wg.Wait()
	})
}

// TestInvalidateCacheGeneration pins the bugfix: a weight-code computation
// that straddles InvalidateCache must not re-populate the cache with codes
// from the stale weights.
func TestInvalidateCacheGeneration(t *testing.T) {
	rng := tensor.NewRNG(44)
	conv := nn.NewConv2D("c", 1, 1, 3, 1, 1, false, rng)
	x := tensor.New(1, 1, 6, 6)
	rng.FillUniform(x, 0, 1)

	e := NewExec(-1)
	out1 := e.Conv(x, conv)
	conv.Weight.W.Scale(2)
	e.InvalidateCache()
	out2 := e.Conv(x, conv)
	if tensor.MaxAbsDiff(out1, out2) == 0 {
		t.Fatal("invalidation must pick up the rescaled weights")
	}
	// A second call must agree with the post-invalidation result (cache
	// now holds the fresh codes).
	out3 := e.Conv(x, conv)
	if tensor.MaxAbsDiff(out2, out3) != 0 {
		t.Fatal("post-invalidation cache must be stable")
	}
}
