package tensor

import (
	"fmt"
	"testing"
)

// packOracle is the reference Im2colIntTPack must match word for word:
// the int32 transposed gather followed by a lane-by-lane pack.
func packOracle(src []int32, g ConvGeom, planes int, signed bool) *Bitplanes {
	t := make([]int32, g.ColRows()*g.ColCols())
	Im2colIntT(src, g, t)
	bp := NewBitplanes(g.ColCols(), g.ColRows(), planes, signed)
	bp.PackRows(t)
	return bp
}

// packSample packs a whole [C,H,W] sample into rb.
func packSample(rb *RowBitplanes, src []int32) {
	for c := 0; c < rb.C; c++ {
		for h := 0; h < rb.H; h++ {
			base := (c*rb.H + h) * rb.InW
			rb.PackRow(c, h, src[base:base+rb.InW])
		}
	}
}

// checkIm2colIntTPack packs one random sample through the row-bitplane
// packer into a dirty destination and compares it with the oracle.
func checkIm2colIntTPack(t *testing.T, rng *RNG, g ConvGeom, planes int, signed bool) {
	t.Helper()
	src := randCodes(rng, g.InC*g.InH*g.InW, planes, signed)
	// Zero a third of the codes, as ReLU outputs would be.
	for i := range src {
		if rng.Intn(3) == 0 {
			src[i] = 0
		}
	}
	want := packOracle(src, g, planes, signed)

	rowBuf := make([]uint64, RowBitplaneSize(g, planes))
	for i := range rowBuf {
		rowBuf[i] = ^uint64(0)
	}
	rb := NewRowBitplanes(g, planes, rowBuf)
	packSample(rb, src)
	got := &Bitplanes{R: want.R, L: want.L, P: planes, W: want.W, Signed: signed,
		Data: make([]uint64, len(want.Data))}
	for i := range got.Data {
		got.Data[i] = uint64(rng.Intn(1<<30)) * 0x9e3779b97f4a7c15
	}
	Im2colIntTPack(rb, g, got)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			pos := i / (planes * want.W)
			t.Fatalf("%+v planes=%d signed=%v: word %d (position %d, plane %d, word %d) = %#x, want %#x",
				g, planes, signed, i, pos, i/want.W%planes, i%want.W, got.Data[i], want.Data[i])
		}
	}
}

// TestIm2colIntTPackMatchesOracle checks the row-bitplane packer against
// Im2colIntT + Bitplanes.PackRows on fixed edge geometries and random
// ones: stride 1–3, pad 0–3, K 1/3/5/7, kernels larger than the image,
// padded rows wider than 64 bits, lane fields straddling a word and
// every plane count the ODQ splits use, signed and unsigned.
func TestIm2colIntTPackMatchesOracle(t *testing.T) {
	rng := NewRNG(13)
	geoms := []ConvGeom{
		Geometry(16, 16, 16, 8, 3, 1, 1),   // ResNet-style 3×3, 144 lanes
		Geometry(8, 9, 9, 4, 3, 2, 1),      // stride 2, 9-bit fields straddle lane 63
		Geometry(3, 11, 13, 4, 1, 3, 0),    // 1×1 at stride 3
		Geometry(2, 3, 3, 4, 5, 1, 1),      // kernel larger than the image
		Geometry(1, 2, 2, 4, 7, 1, 3),      // 7×7 over 2×2 with pad 3
		Geometry(4, 5, 70, 4, 3, 1, 1),     // 72-bit padded rows, K=3 general path
		Geometry(3, 6, 62, 4, 5, 3, 3),     // 68-bit rows, 5-bit fields straddle row words
		Geometry(2, 4, 129, 4, 7, 2, 2),    // three-word rows
		Geometry(5, 7, 64, 4, 3, 1, 0),     // exactly one row word, no pad
		Geometry(13, 5, 5, 4, 5, 2, 2),     // 25-lane fields across lane words
		Geometry(1, 1, 1, 1, 1, 1, 0),      // one tap
		Geometry(64, 4, 4, 4, 3, 1, 1),     // VGG-style 576 lanes
		Geometry(2, 64, 200, 4, 64, 17, 0), // a 64-bit field
	}
	for i := 0; i < 40; i++ {
		k := []int{1, 3, 5, 7}[rng.Intn(4)]
		stride := 1 + rng.Intn(3)
		pad := rng.Intn(4)
		h := 1 + rng.Intn(12)
		w := 1 + rng.Intn(80)
		if h+2*pad < k {
			h = k - 2*pad
		}
		if w+2*pad < k {
			w = k - 2*pad
		}
		geoms = append(geoms, Geometry(1+rng.Intn(9), h, w, 4, k, stride, pad))
	}
	for _, g := range geoms {
		for planes := 1; planes <= 4; planes++ {
			checkIm2colIntTPack(t, rng, g, planes, false)
			checkIm2colIntTPack(t, rng, g, planes, true)
		}
	}
}

// BenchmarkIm2colIntTPack times the receptive-field pack of one sample at
// the ResNet-20 predictor shapes (2 planes) and the VGG-16 executor
// shapes (3 planes), row-bitplane packing included.
func BenchmarkIm2colIntTPack(b *testing.B) {
	for _, tc := range []struct {
		name   string
		g      ConvGeom
		planes int
	}{
		{"resnet20-4x32x32-P2", Geometry(4, 32, 32, 4, 3, 1, 1), 2},
		{"resnet20-16x8x8-P2", Geometry(16, 8, 8, 16, 3, 1, 1), 2},
		{"vgg16-64x16x16-P3", Geometry(64, 16, 16, 64, 3, 1, 1), 3},
		{"vgg16-256x4x4-P3", Geometry(256, 4, 4, 256, 3, 1, 1), 3},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := NewRNG(5)
			src := randCodes(rng, tc.g.InC*tc.g.InH*tc.g.InW, tc.planes, true)
			rb := NewRowBitplanes(tc.g, tc.planes, nil)
			bp := NewBitplanes(tc.g.ColCols(), tc.g.ColRows(), tc.planes, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				packSample(rb, src)
				Im2colIntTPack(rb, tc.g, bp)
			}
		})
	}
}

// TestIm2colIntTPackRejectsMismatch pins the geometry guard: row
// bitplanes laid out for one geometry must not be expanded as another.
func TestIm2colIntTPackRejectsMismatch(t *testing.T) {
	g := Geometry(2, 5, 5, 4, 3, 1, 1)
	other := Geometry(2, 5, 5, 4, 3, 1, 0)
	rb := NewRowBitplanes(g, 2, nil)
	bp := NewBitplanes(other.ColCols(), other.ColRows(), 2, false)
	defer func() {
		if r := recover(); r == nil || fmt.Sprint(r) == "" {
			t.Fatal("mismatched geometry did not panic")
		}
	}()
	Im2colIntTPack(rb, other, bp)
}
