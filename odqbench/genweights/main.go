// Command genweights QAT-trains the two inference models the benchmark
// serves (ResNet-20 and VGG-16, width 0.25, CIFAR-10-like data) with the
// repository's own recipe — experiments.Lab.Model at test scale: clipped
// warm-up, 4-bit QAT, then the adaptive threshold search with
// threshold-aware retraining — and stores the weights, the thresholds
// and the realized per-layer sensitive-output density beside the
// benchmark, so timed runs never train.
//
// ResNet-20 is served at the searched threshold. VGG-16 runs offline at
// a fixed sparse threshold: the smallest swept value at which every conv
// realizes a density inside the paper's 8–50% band and clearly below the
// executor's 0.45 bitplane/GEMM cutover; the model is then retrained at
// that threshold with the same threshold-aware fine-tune the search uses.
//
// Run it from the benchmark directory (about three minutes on 2 CPUs):
//
//	go run ./genweights -seed 1 -out weights
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/train"
	"repro/odqbench/weights"
)

var sweep = []float32{0.5, 0.75, 1, 1.25, 1.5, 2, 2.5, 3}

// sparseBand is the density range every offline conv must realize.
const sparseLo, sparseHi = 0.08, 0.40

// sparseFTEpochs is the length of the threshold-aware retraining at the
// fixed offline threshold.
const sparseFTEpochs = 3

func main() {
	seed := flag.Int64("seed", 1, "training seed (experiments.Scale.Seed)")
	out := flag.String("out", "weights", "output directory")
	flag.Parse()
	if err := run(*seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "genweights:", err)
		os.Exit(1)
	}
}

func run(seed int64, out string) error {
	scale := experiments.TestScale()
	scale.Seed = seed
	scaleJSON, err := json.Marshal(scale)
	if err != nil {
		return err
	}
	lab := experiments.NewLab(scale, os.Stderr)
	manifest := weights.Manifest{
		Command: fmt.Sprintf("go run ./genweights -seed %d -out %s", seed, out),
		Seed:    seed,
		Scale:   scaleJSON,
		Models:  map[string]*weights.Model{},
	}
	for _, name := range []string{"resnet20", "vgg16"} {
		t0 := time.Now()
		tm := lab.Model(name, "c10")
		rec := &weights.Model{
			Name:            name,
			File:            name + ".bin",
			Width:           scale.ModelScale,
			QATBits:         4,
			Classes:         10,
			InitSeed:        seed,
			FP32Acc:         tm.FP32Acc,
			Threshold:       tm.Threshold,
			SearchThreshold: tm.Threshold,
			SearchAccuracy:  tm.Search.Accuracy,
		}
		if name == "vgg16" {
			th, ok := sparseThreshold(sweepAll(tm))
			if !ok {
				return fmt.Errorf("no swept threshold puts every vgg16 conv inside [%.2f, %.2f)", sparseLo, sparseHi)
			}
			retrainAt(tm, th, scale)
			rec.Threshold = th
		}
		rec.TrainSeconds = time.Since(t0).Seconds()
		rec.Sweep = sweepAll(tm)
		if name == "vgg16" {
			for _, sp := range rec.Sweep {
				if sp.Threshold == rec.Threshold && !inBand(sp) {
					return fmt.Errorf("vgg16 left the sparse band after retraining at %.2f", rec.Threshold)
				}
			}
		}
		if err := save(filepath.Join(out, rec.File), tm.Net); err != nil {
			return err
		}
		manifest.Models[name] = rec
	}
	b, err := json.MarshalIndent(manifest, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, "weights.json"), append(b, '\n'), 0o644)
}

func save(path string, net nn.Module) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := nn.Save(f, net); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// retrainAt fine-tunes the model with the ODQ straight-through forward at
// threshold th and frozen batch-norm statistics — the retraining step of
// the lab's threshold search, run at a fixed threshold.
func retrainAt(tm *experiments.TrainedModel, th float32, scale experiments.Scale) {
	e := core.NewExec(th, core.WithoutWeightCache())
	nn.SetConvTrainExec(tm.Net, e)
	nn.SetBNFrozen(tm.Net, true)
	train.MustFit(tm.Net, tm.Train, train.Options{
		Epochs:    sparseFTEpochs,
		BatchSize: scale.BatchSize,
		LR:        scale.LR / 4,
		Momentum:  0.9,
		Decay:     1e-4,
		Seed:      scale.Seed + 7,
	})
	nn.SetBNFrozen(tm.Net, false)
	nn.SetConvTrainExec(tm.Net, nil)
}

func sweepAll(tm *experiments.TrainedModel) []weights.SweepPoint {
	ths := append([]float32{tm.Threshold}, sweep...)
	sort.Slice(ths, func(i, j int) bool { return ths[i] < ths[j] })
	var pts []weights.SweepPoint
	for _, th := range ths {
		pts = append(pts, sweepPoint(tm, th))
	}
	return pts
}

func sweepPoint(tm *experiments.TrainedModel, th float32) weights.SweepPoint {
	e := core.NewExec(th, core.WithProfiling())
	nn.SetConvExecTail(tm.Net, e)
	defer nn.SetConvExecTail(tm.Net, nil)
	sp := weights.SweepPoint{Threshold: th, Accuracy: train.Evaluate(tm.Net, tm.Test, 32)}
	var sum float64
	for _, p := range e.Profiles() {
		d := float64(p.SensitiveOutputs) / float64(p.TotalOutputs)
		sp.Density = append(sp.Density, d)
		sum += d
	}
	sp.Mean = sum / float64(len(sp.Density))
	return sp
}

// sparseThreshold returns the smallest swept threshold at which every
// conv realizes a density inside the sparse band.
func sparseThreshold(pts []weights.SweepPoint) (float32, bool) {
	for _, sp := range pts {
		if inBand(sp) {
			return sp.Threshold, true
		}
	}
	return 0, false
}

func inBand(sp weights.SweepPoint) bool {
	for _, d := range sp.Density {
		if d < sparseLo || d >= sparseHi {
			return false
		}
	}
	return true
}
