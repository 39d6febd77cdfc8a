package tensor

// ConvGeom captures the geometry of a 2-D convolution so that forward,
// backward, and all the quantized paths agree on output sizing.
type ConvGeom struct {
	InC, InH, InW    int
	OutC, OutH, OutW int
	K, Stride, Pad   int
}

// Geometry computes output dimensions for a convolution over an input of
// inC×inH×inW with outC filters of size k, given stride and padding.
func Geometry(inC, inH, inW, outC, k, stride, pad int) ConvGeom {
	return ConvGeom{
		InC: inC, InH: inH, InW: inW,
		OutC: outC,
		OutH: (inH+2*pad-k)/stride + 1,
		OutW: (inW+2*pad-k)/stride + 1,
		K:    k, Stride: stride, Pad: pad,
	}
}

// ColRows returns the number of rows of the im2col matrix (C*K*K).
func (g ConvGeom) ColRows() int { return g.InC * g.K * g.K }

// ColCols returns the number of columns of the im2col matrix (OutH*OutW).
func (g ConvGeom) ColCols() int { return g.OutH * g.OutW }

// MACsPerOutput returns the MAC count that produces one output feature.
func (g ConvGeom) MACsPerOutput() int { return g.InC * g.K * g.K }

// TotalOutputs returns the number of output features per sample.
func (g ConvGeom) TotalOutputs() int { return g.OutC * g.OutH * g.OutW }

// TotalMACs returns the MAC count for one sample through this layer.
func (g ConvGeom) TotalMACs() int64 {
	return int64(g.TotalOutputs()) * int64(g.MACsPerOutput())
}

// Im2col expands one sample (src layout [C,H,W], len C*H*W) into the
// column matrix dst of shape [C*K*K, OutH*OutW] (row-major). Out-of-bounds
// (padding) positions contribute zero.
func Im2col(src []float32, g ConvGeom, dst []float32) {
	rows, cols := g.ColRows(), g.ColCols()
	if len(dst) < rows*cols {
		panic("tensor: Im2col dst too small")
	}
	for c := 0; c < g.InC; c++ {
		chanBase := c * g.InH * g.InW
		for kh := 0; kh < g.K; kh++ {
			for kw := 0; kw < g.K; kw++ {
				row := (c*g.K+kh)*g.K + kw
				dstRow := dst[row*cols : (row+1)*cols]
				idx := 0
				for oh := 0; oh < g.OutH; oh++ {
					ih := oh*g.Stride - g.Pad + kh
					if ih < 0 || ih >= g.InH {
						for ow := 0; ow < g.OutW; ow++ {
							dstRow[idx] = 0
							idx++
						}
						continue
					}
					rowBase := chanBase + ih*g.InW
					for ow := 0; ow < g.OutW; ow++ {
						iw := ow*g.Stride - g.Pad + kw
						if iw < 0 || iw >= g.InW {
							dstRow[idx] = 0
						} else {
							dstRow[idx] = src[rowBase+iw]
						}
						idx++
					}
				}
			}
		}
	}
}

// Im2colInt is Im2col over int32 codes, used by the quantized paths. Each
// (row, output row) segment is written as zero padding around one run of
// in-image taps, which is a single contiguous copy at stride 1.
func Im2colInt(src []int32, g ConvGeom, dst []int32) {
	rows, cols := g.ColRows(), g.ColCols()
	if len(dst) < rows*cols {
		panic("tensor: Im2colInt dst too small")
	}
	for c := 0; c < g.InC; c++ {
		chanBase := c * g.InH * g.InW
		for kh := 0; kh < g.K; kh++ {
			for kw := 0; kw < g.K; kw++ {
				row := (c*g.K+kh)*g.K + kw
				lo, hi := tapSpan(g, kw)
				for oh := 0; oh < g.OutH; oh++ {
					d := dst[row*cols+oh*g.OutW : row*cols+(oh+1)*g.OutW]
					ih := oh*g.Stride - g.Pad + kh
					if ih < 0 || ih >= g.InH || lo == hi {
						clear(d)
						continue
					}
					clear(d[:lo])
					clear(d[hi:])
					srcRow := src[chanBase+ih*g.InW : chanBase+(ih+1)*g.InW]
					iw := lo*g.Stride - g.Pad + kw
					if g.Stride == 1 {
						copy(d[lo:hi], srcRow[iw:])
						continue
					}
					for ow := lo; ow < hi; ow++ {
						d[ow] = srcRow[iw]
						iw += g.Stride
					}
				}
			}
		}
	}
}

// tapSpan returns the output columns [lo, hi) whose kernel column kw reads
// inside the image (0 <= ow·Stride − Pad + kw < InW); the rest read
// padding.
func tapSpan(g ConvGeom, kw int) (lo, hi int) {
	if off := g.Pad - kw; off > 0 {
		lo = (off + g.Stride - 1) / g.Stride
	}
	hi = (g.InW + g.Pad - kw + g.Stride - 1) / g.Stride
	if hi > g.OutW {
		hi = g.OutW
	} else if hi < 0 {
		hi = 0
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Im2colIntT writes the TRANSPOSED integer column matrix: dst has shape
// [OutH*OutW, C*K*K] (row-major), so each output position's receptive
// field is one contiguous row in (c, kh, kw) order — the same order as a
// weight-code row [O][C,K,K]. The legacy scalar sparse executor turns a
// masked output into a single contiguous dot product over it; the
// bitplane paths build the same rows directly in the bit domain
// (Im2colIntTPack).
func Im2colIntT(src []int32, g ConvGeom, dst []int32) {
	rows, cols := g.ColRows(), g.ColCols()
	if len(dst) < rows*cols {
		panic("tensor: Im2colIntT dst too small")
	}
	kk := g.K * g.K
	pos := 0
	for oh := 0; oh < g.OutH; oh++ {
		ihBase := oh*g.Stride - g.Pad
		for ow := 0; ow < g.OutW; ow++ {
			iwBase := ow*g.Stride - g.Pad
			dstRow := dst[pos*rows : (pos+1)*rows]
			interior := iwBase >= 0 && iwBase+g.K <= g.InW
			for c := 0; c < g.InC; c++ {
				chanBase := c * g.InH * g.InW
				out := dstRow[c*kk : (c+1)*kk]
				idx := 0
				for kh := 0; kh < g.K; kh++ {
					ih := ihBase + kh
					if ih < 0 || ih >= g.InH {
						for kw := 0; kw < g.K; kw++ {
							out[idx] = 0
							idx++
						}
						continue
					}
					rowBase := chanBase + ih*g.InW
					if interior {
						copy(out[idx:idx+g.K], src[rowBase+iwBase:rowBase+iwBase+g.K])
						idx += g.K
						continue
					}
					for kw := 0; kw < g.K; kw++ {
						iw := iwBase + kw
						if iw < 0 || iw >= g.InW {
							out[idx] = 0
						} else {
							out[idx] = src[rowBase+iw]
						}
						idx++
					}
				}
			}
			pos++
		}
	}
}

// RowBitplanes holds one sample's [C,H,W] integer codes as bitplanes per
// input row, in padded column coordinates: input column iw sits at bit
// iw+Pad of its row, so pad columns are zero bits and the K taps of a
// kernel row are one contiguous K-bit field. Plane p of row (c, h)
// occupies Data[((c*H+h)*P+p)*W : +W] with W = BitplaneWords(InW+2·Pad)
// (one word for every CNN layer up to 62 columns at pad 1). Codes keep
// their low P bits — two's complement for signed codes — exactly as
// Bitplanes.PackRow stores them, so signedness belongs to the Bitplanes
// the rows are expanded into.
type RowBitplanes struct {
	C, H, InW, Pad, P, W int
	Data                 []uint64
}

// RowBitplaneSize returns the Data length RowBitplanes needs for one
// sample of geometry g at the given plane count.
func RowBitplaneSize(g ConvGeom, planes int) int {
	return g.InC * g.InH * planes * BitplaneWords(g.InW+2*g.Pad)
}

// NewRowBitplanes lays row bitplanes for one sample of geometry g over
// buf (contents arbitrary: PackRow overwrites a whole row), or over a
// fresh allocation when buf is nil.
func NewRowBitplanes(g ConvGeom, planes int, buf []uint64) *RowBitplanes {
	n := RowBitplaneSize(g, planes)
	if buf == nil {
		buf = make([]uint64, n)
	} else if len(buf) < n {
		panic("tensor: NewRowBitplanes buffer too small")
	}
	return &RowBitplanes{C: g.InC, H: g.InH, InW: g.InW, Pad: g.Pad, P: planes,
		W: BitplaneWords(g.InW + 2*g.Pad), Data: buf[:n]}
}

// PackRow packs the InW codes of input row (c, h) from src, clearing the
// pad columns. Code ranges are as for Bitplanes.PackRow.
func (rb *RowBitplanes) PackRow(c, h int, src []int32) {
	if len(src) < rb.InW {
		panic("tensor: RowBitplanes.PackRow src too short")
	}
	n := rb.P * rb.W
	row := rb.Data[(c*rb.H+h)*n : (c*rb.H+h+1)*n]
	src = src[:rb.InW]
	// One register accumulator per (plane, row word): every word is
	// written once, and no branch depends on the code values.
	for wi := 0; wi < rb.W; wi++ {
		lo, hi := max(0, wi*64-rb.Pad), min(rb.InW, (wi+1)*64-rb.Pad)
		b0 := uint(lo + rb.Pad - wi*64)
		for p := 0; p < rb.P; p++ {
			var acc uint64
			if lo < hi {
				acc = planeBits(src[lo:hi], uint(p), b0)
			}
			row[p*rb.W+wi] = acc
		}
	}
}

// planeBits gathers bit p of each code into one word, code i at bit
// b0+i (the caller keeps b0+len(src) <= 64).
func planeBits(src []int32, p, b0 uint) uint64 {
	var acc uint64
	for i, v := range src {
		acc |= uint64(uint32(v)>>(p&31)&1) << ((b0 + uint(i)) & 63)
	}
	return acc
}

// Im2colIntTPack builds the bitplane form of the transposed column
// matrix (Im2colIntT followed by Bitplanes.PackRows, word for word)
// straight from a sample's row bitplanes: bp gets one row per output
// position (R = ColCols()) of L = ColRows() lanes in (c, kh, kw) order,
// with rb.P planes. Kernel row kh of channel c at output (oh, ow) is the
// K-bit field at bit ow·Stride of padded input row oh·Stride−Pad+kh,
// shifted and masked out of the row words and OR-ed in at lane
// (c·K+kh)·K; a field may straddle two row words or two lane words.
// Kernel rows that fall in the vertical padding contribute nothing. bp
// may hold arbitrary data: each output row is cleared before it is
// built. K must be at most 64 (one field per word).
func Im2colIntTPack(rb *RowBitplanes, g ConvGeom, bp *Bitplanes) {
	if rb.C != g.InC || rb.H != g.InH || rb.InW != g.InW || rb.Pad != g.Pad || rb.P != bp.P {
		panic("tensor: Im2colIntTPack row bitplanes do not match the geometry")
	}
	if bp.R != g.ColCols() || bp.L != g.ColRows() {
		panic("tensor: Im2colIntTPack bitplanes shape mismatch")
	}
	if g.K > 64 {
		panic("tensor: Im2colIntTPack kernel wider than 64")
	}
	k, stride := g.K, g.Stride
	p, w, rw := bp.P, bp.W, rb.W
	posWords := p * w
	k3 := k == 3 && rw == 1
	for oh := 0; oh < g.OutH; oh++ {
		dst := bp.Data[oh*g.OutW*posWords : (oh+1)*g.OutW*posWords]
		clear(dst)
		ih0 := oh*stride - g.Pad
		khLo, khHi := max(0, -ih0), min(k, g.InH-ih0)
		for c := 0; c < g.InC; c++ {
			if k3 {
				// The paper's 3×3 layers with single-word rows: the
				// three row words of each plane are hoisted out of
				// the position loop.
				lane := c * 9
				rows := rb.Data[c*g.InH*p:]
				for pl := 0; pl < p; pl++ {
					var r0, r1, r2 uint64
					if khLo <= 0 && khHi > 0 {
						r0 = rows[ih0*p+pl]
					}
					if khLo <= 1 && khHi > 1 {
						r1 = rows[(ih0+1)*p+pl]
					}
					if khLo <= 2 && khHi > 2 {
						r2 = rows[(ih0+2)*p+pl]
					}
					if r0|r1|r2 != 0 {
						orFields3(dst[pl*w+lane>>6:], g.OutW, stride, posWords, r0, r1, r2, uint(lane)&63)
					}
				}
				continue
			}
			for kh := khLo; kh < khHi; kh++ {
				row := rb.Data[(c*g.InH+ih0+kh)*p*rw:]
				lane := (c*k + kh) * k
				for pl := 0; pl < p; pl++ {
					orFields(dst[pl*w+lane>>6:], row[pl*rw:(pl+1)*rw], g.OutW, stride, posWords, k, uint(lane)&63)
				}
			}
		}
	}
}

// orFields3 ORs the 9-bit field that row words r0..r2 hold at bit
// ow·stride into dst[ow·posWords] at bit lb, for n output positions,
// spilling the high bits into the next word when the field crosses bit
// 63.
func orFields3(dst []uint64, n, stride, posWords int, r0, r1, r2 uint64, lb uint) {
	spill := lb > 64-9
	for ow := 0; ow < n; ow++ {
		s := uint(ow*stride) & 63
		f := (r0>>s)&7 | (r1>>s)&7<<3 | (r2>>s)&7<<6
		o := ow * posWords
		dst[o] |= f << lb
		if spill {
			dst[o+1] |= f >> (64 - lb)
		}
	}
}

// orFields is orFields3 for one kernel row of any width k <= 64 read
// from a padded row plane of one or more words: the field at bit
// ow·stride may straddle two row words, and it lands in one or two lane
// words.
func orFields(dst, plane []uint64, n, stride, posWords, k int, lb uint) {
	kmask := uint64(1)<<uint(k) - 1
	spill := int(lb)+k > 64
	for ow := 0; ow < n; ow++ {
		s := ow * stride
		wi, sb := s>>6, uint(s)&63
		f := plane[wi] >> sb
		if sb != 0 && wi+1 < len(plane) {
			f |= plane[wi+1] << (64 - sb)
		}
		f &= kmask
		o := ow * posWords
		dst[o] |= f << lb
		if spill {
			dst[o+1] |= f >> (64 - lb)
		}
	}
}

// Col2im scatters the column-matrix gradient back to an input-gradient
// buffer (the adjoint of Im2col). dst has layout [C,H,W] and is accumulated
// into (callers zero it first).
func Col2im(cols []float32, g ConvGeom, dst []float32) {
	ncols := g.ColCols()
	for c := 0; c < g.InC; c++ {
		chanBase := c * g.InH * g.InW
		for kh := 0; kh < g.K; kh++ {
			for kw := 0; kw < g.K; kw++ {
				row := (c*g.K+kh)*g.K + kw
				srcRow := cols[row*ncols : (row+1)*ncols]
				idx := 0
				for oh := 0; oh < g.OutH; oh++ {
					ih := oh*g.Stride - g.Pad + kh
					if ih < 0 || ih >= g.InH {
						idx += g.OutW
						continue
					}
					rowBase := chanBase + ih*g.InW
					for ow := 0; ow < g.OutW; ow++ {
						iw := ow*g.Stride - g.Pad + kw
						if iw >= 0 && iw < g.InW {
							dst[rowBase+iw] += srcRow[idx]
						}
						idx++
					}
				}
			}
		}
	}
}
