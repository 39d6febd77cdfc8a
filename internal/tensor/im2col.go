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
// weight-code row [O][C,K,K]. The sparse ODQ executor uses this to turn a
// masked output into a single contiguous dot product.
func Im2colIntT(src []int32, g ConvGeom, dst []int32) {
	Im2colIntTPack(src, g, dst, nil)
}

// Im2colIntTPack is Im2colIntT with an optional fused bitplane pack: when
// bp is non-nil, every gathered output row is packed into bp while still
// hot in cache, saving the second full sweep over the (large) transposed
// matrix that a separate PackRows pass would cost. bp must have R =
// ColCols() rows of L = ColRows() lanes. dst may be nil when bp is
// non-nil: the gather then runs through a single pooled row buffer and
// never materializes the rows×cols matrix at all, which keeps the
// working set at one receptive field instead of the whole transpose —
// the packed planes are the only output.
func Im2colIntTPack(src []int32, g ConvGeom, dst []int32, bp *Bitplanes) {
	rows, cols := g.ColRows(), g.ColCols()
	var rowBuf []int32
	if dst == nil {
		if bp == nil {
			panic("tensor: Im2colIntTPack needs dst or bp")
		}
		rowBuf = GetInt32(rows)
		defer PutInt32(rowBuf)
	} else if len(dst) < rows*cols {
		panic("tensor: Im2colIntT dst too small")
	}
	kk := g.K * g.K
	pos := 0
	for oh := 0; oh < g.OutH; oh++ {
		ihBase := oh*g.Stride - g.Pad
		for ow := 0; ow < g.OutW; ow++ {
			iwBase := ow*g.Stride - g.Pad
			var dstRow []int32
			if dst != nil {
				dstRow = dst[pos*rows : (pos+1)*rows]
			} else {
				dstRow = rowBuf[:rows]
			}
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
			if bp != nil {
				bp.PackRow(pos, dstRow)
			}
			pos++
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
