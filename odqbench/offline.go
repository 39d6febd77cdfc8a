package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/infer"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/odqbench/weights"
)

// offline-vgg16-sparse: a closed loop of batch-16 Session.Forward calls
// through the packed-INT4 pipeline, at a threshold that keeps every
// conv's realized density below the executor's bitplane/GEMM cutover.
const (
	offlinePool   = 256 // evaluation images: 16 batches of 16
	offlineBatch  = 16
	offlineChecks = 2 // batches re-run through the module chain and the dense reference
)

type offlineRig struct {
	sess *infer.Session
	exec *core.Exec
}

func runOffline(rc runConfig) (*outcome, error) {
	man, err := weights.Load(rc.weights)
	if err != nil {
		return nil, err
	}
	rec, err := man.Get("vgg16")
	if err != nil {
		return nil, err
	}
	pool := evalPool(offlinePool)
	rng := rand.New(rand.NewSource(rc.seed))
	order := rng.Perm(pool.Len())
	nb := pool.Len() / offlineBatch
	xs := make([]*tensor.Tensor, nb)
	ys := make([][]int, nb)
	for b := range xs {
		xs[b], ys[b] = pool.Batch(order[b*offlineBatch : (b+1)*offlineBatch])
	}

	// Set-up: checkpoint load, session and packed-pipeline build, warmup.
	rig, setupS, err := setupMedian(3, func() (*offlineRig, error) {
		net, err := loadModel(rc.weights, rec)
		if err != nil {
			return nil, err
		}
		opts := []infer.Option{infer.WithThreshold(rec.Threshold), infer.WithPackedDomain()}
		if rc.traced {
			opts = append(opts, infer.WithProfiling())
		}
		sess, err := infer.NewSession(net, "odq", opts...)
		if err != nil {
			return nil, err
		}
		sess.Forward(tensor.New(offlineBatch, 3, 32, 32))
		exec := sess.Exec().(*core.Exec)
		exec.Reset()
		return &offlineRig{sess: sess, exec: exec}, nil
	}, func(*offlineRig) {})
	if err != nil {
		return nil, err
	}
	sess := rig.sess
	forward := sess.Forward
	if rc.traced {
		forward = sess.Pipeline().Forward
	}

	out := newOutcome()
	out.e2e["setup_s"] = setupS
	// A first pass over the pool, outside the timed window, records the
	// logits every later pass must reproduce bit for bit.
	first := make([][]float32, nb)
	for b := range xs {
		first[b] = append([]float32(nil), forward(xs[b]).Data...)
	}
	var durs, gaps []float64
	images := 0
	budget := time.Duration(rc.seconds * float64(time.Second))
	t0 := time.Now()
	prevEnd := t0
	for k := 0; time.Since(t0) < budget; k++ {
		b := k % nb
		start := time.Now()
		gaps = append(gaps, float64(start.Sub(prevEnd)))
		logits := forward(xs[b])
		prevEnd = time.Now()
		durs = append(durs, float64(prevEnd.Sub(start)))
		images += offlineBatch
		out.attempted++
		if !bitsEqual(first[b], logits.Data) {
			out.failed++
		}
	}
	elapsed := prevEnd.Sub(t0).Seconds()
	profiles := snapshotProfiles(rig.exec)

	// Checks: the packed pipeline against the module-chain forward of the
	// same session (traced runs time the chain's convs per layer) and
	// against the dense reference executor.
	dense, err := denseReference(rc.weights, rec)
	if err != nil {
		return nil, err
	}
	var texec *timedExec
	if rc.traced {
		texec = newTimedExec(rig.exec)
		nn.SetConvExecTail(sess.Net(), texec)
	}
	for c := 0; c < offlineChecks; c++ {
		b := rng.Intn(nb)
		out.attempted += 2
		if !bitsEqual(first[b], sess.Net().Forward(xs[b], false).Data) {
			out.failed++
		}
		if !bitsEqual(first[b], dense.Forward(xs[b]).Data) {
			out.failed++
		}
	}
	nn.SetConvExecTail(sess.Net(), rig.exec)

	var correct int
	var loss float64
	for b := range first {
		for i, label := range ys[b] {
			row := first[b][i*pool.Classes : (i+1)*pool.Classes]
			if argmax(row) == label {
				correct++
			}
			loss += crossEntropy(row, label)
		}
	}
	out.e2e["accuracy"] = float64(correct) / float64(pool.Len())
	out.e2e["train_loss"] = loss / float64(pool.Len())
	// Every batch does the same work, so every timing metric is the
	// floor of the batch forward time (see floorOf) and throughput is a
	// batch over it; the pooled figures are printed for reference.
	floor := floorOf(durs)
	for _, k := range []string{"p50_ms", "batch_p90_ms"} {
		out.e2e[k] = ms(floor)
		out.samples[k] = len(durs)
	}
	out.e2e["images_per_s"] = offlineBatch / (floor / 1e9)
	out.e2e["samples_per_s"] = out.e2e["images_per_s"]
	fmt.Printf("batch forward: floor %.4g ms, median %.4g ms, p90 %.4g ms; %.4g images/s over the whole run\n",
		ms(floor), ms(median(durs)), ms(quantile(durs, 0.9)), float64(images)/elapsed)

	if rc.traced {
		L := out.layer
		L["loadgen.lag_p99_ms"] = ms(quantile(gaps, 0.99))
		out.samples["loadgen.lag_p99_ms"] = len(gaps)
		L["core.pipeline_ms"] = ms(median(durs))
		texec.mu.Lock()
		for name, s := range texec.conv {
			L["core.conv_ms."+name] = s.msPerImage()
		}
		texec.mu.Unlock()
		modeled(out, profiles, func(name string) float64 { return L["core.conv_ms."+name] })
		x1, _ := pool.Batch([]int{0})
		b1 := timed(10, func() { sess.Forward(x1) })
		b16 := timed(3, func() { sess.Forward(xs[0]) })
		L["infer.forward_b1_ms"] = ms(float64(b1))
		L["infer.forward_b16_ms"] = ms(float64(b16))
		L["infer.batch_gain"] = 16 * float64(b1) / float64(b16)
		L["infer.allocs_per_forward"] = allocsPerCall(5, func() { sess.Forward(x1) })
		kernelRows(out, profiles, firstConv(rec))
	}
	return out, nil
}

// snapshotProfiles copies an executor's accumulated per-layer profiles
// (the profiler keeps merging into the records it hands out).
func snapshotProfiles(e *core.Exec) []*quant.LayerProfile {
	var ps []*quant.LayerProfile
	for _, p := range e.Profiles() {
		c := *p
		ps = append(ps, &c)
	}
	return ps
}
