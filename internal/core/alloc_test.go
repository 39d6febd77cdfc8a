package core

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestConvEvalSteadyStateAllocs pins the garbage of an eval-mode batch-16
// ODQ conv on the default path. What a call must allocate is its float
// output, the sensitivity mask and the batch's activation codes; the
// per-sample high/low code split, predictor accumulators, packed planes
// and GEMM buffers all come from the scratch pools. Splitting the codes of
// the whole batch into fresh tensors again would add twice the activation
// codes and fail the bound.
func TestConvEvalSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark")
	}
	if raceEnabled {
		t.Skip("race runtime makes sync.Pool lossy and inflates allocations")
	}
	rng := tensor.NewRNG(8)
	const batch, inC, outC, hw = 16, 16, 8, 16
	conv := nn.NewConv2D("c", inC, outC, 3, 1, 1, false, rng)
	x := tensor.New(batch, inC, hw, hw)
	rng.FillUniform(x, 0, 1)

	for _, tc := range []struct {
		name string
		th   float32
	}{{"gemm", 0}, {"dot", 2}} {
		e := NewExec(tc.th)
		for i := 0; i < 5; i++ {
			e.Conv(x, conv)
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.Conv(x, conv)
			}
		})
		outBytes := int64(batch * outC * hw * hw * 4)
		maskBytes := int64(batch * outC * hw * hw)
		codeBytes := int64(batch * inC * hw * hw * 4)
		inherent := outBytes + maskBytes + codeBytes
		limit := inherent + codeBytes/2
		if got := r.AllocedBytesPerOp(); got > limit {
			t.Fatalf("%s: conv allocates %d B/op, want <= %d (inherent %d): per-call scratch is not being pooled",
				tc.name, got, limit, inherent)
		}
		t.Logf("%s: %d B/op, %d allocs/op (inherent %d B)", tc.name, r.AllocedBytesPerOp(), r.AllocsPerOp(), inherent)
	}
}
