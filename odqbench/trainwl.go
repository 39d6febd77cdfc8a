package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/train"
)

// train-resnet20-2w: data-parallel 4-bit QAT of ResNet-20 (width 0.25,
// seed init) through train.Fit, two workers in this process talking TCP
// over 127.0.0.1, sync group 2, batch 16, for a fixed number of steps.
const (
	trainBatch     = 16
	trainWorld     = 2
	trainGroup     = 2
	trainEpochs    = 4
	stepsPerSecond = 6 // sizes the step count from -seconds
	prefixSteps    = 4 // steps replayed by the 1-worker check
	trainInitSeed  = 1
	trainDataSeed  = 20232
	joinTimeout    = 10 * time.Second
)

var errPrefixDone = errors.New("prefix complete")

// fleet is one joined 2-worker group with its models and data.
type fleet struct {
	ds      *dataset.Dataset
	nets    [trainWorld]*nn.Sequential
	reds    [trainWorld]*timedReducer
	joinSec float64
}

func (f *fleet) close() {
	for _, r := range f.reds {
		_ = r.Close() // teardown; the run's result is already decided
	}
}

func trainModel() *nn.Sequential {
	net, err := models.Build("resnet20", models.Config{Classes: 10, Scale: 0.25, QATBits: 4, Seed: trainInitSeed})
	if err != nil {
		panic(err) // a fixed, known architecture
	}
	return net
}

// buildFleet synthesizes the data, builds both workers' models and joins
// them over TCP.
func buildFleet(samples int) (*fleet, error) {
	f := &fleet{ds: dataset.SyntheticCIFAR10(samples, trainDataSeed)}
	for r := range f.nets {
		f.nets[r] = trainModel()
	}
	t0 := time.Now()
	coord, err := dist.NewCoordinator("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	var g0 *dist.Group
	var err0 error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g0, err0 = coord.Accept(trainWorld, joinTimeout)
	}()
	g1, err1 := dist.Dial(coord.Addr(), 1, trainWorld, joinTimeout)
	wg.Wait()
	if err := errors.Join(err0, err1); err != nil {
		if g0 != nil {
			g0.Close()
		}
		if g1 != nil {
			g1.Close()
		}
		return nil, fmt.Errorf("joining the fleet: %w", err)
	}
	f.joinSec = time.Since(t0).Seconds()
	f.reds[0] = &timedReducer{GradReducer: dist.NewReducer(g0)}
	f.reds[1] = &timedReducer{GradReducer: dist.NewReducer(g1)}
	return f, nil
}

func trainOptions(seed int64) train.Options {
	return train.Options{
		Epochs:    trainEpochs,
		BatchSize: trainBatch,
		LR:        0.002, // larger rates make the run's accuracy and loss swing with the shuffle seed (NOTES.md)
		Momentum:  0.9,
		Decay:     1e-4,
		Seed:      seed,
		GroupSize: trainGroup,
	}
}

// stopAfter ends a run cleanly once a fixed number of steps completed.
type stopAfter struct {
	dist.GradReducer
	steps int64
}

func (s stopAfter) Reduce(step int64, groupSize int, local []dist.BatchGrad, sum []float32) ([]dist.BatchGrad, error) {
	if step >= s.steps {
		return nil, errPrefixDone
	}
	return s.GradReducer.Reduce(step, groupSize, local, sum)
}

func runTrain(rc runConfig) (*outcome, error) {
	steps := int(rc.seconds*stepsPerSecond+trainEpochs-1) / trainEpochs * trainEpochs
	if steps < 2*trainEpochs {
		steps = 2 * trainEpochs
	}
	samples := steps / trainEpochs * trainBatch * trainGroup

	var joins []float64
	fl, setupS, err := setupMedian(5, func() (*fleet, error) {
		f, err := buildFleet(samples)
		if err == nil {
			joins = append(joins, f.joinSec)
		}
		return f, err
	}, func(f *fleet) { f.close() })
	if err != nil {
		return nil, err
	}
	defer fl.close()

	// Rank 0's model is timed as a whole (forward per batch) and, when
	// traced, leaf by leaf.
	batches := newModuleTimes(true)
	var mods *moduleTimes
	if rc.traced {
		mods = newModuleTimes(false)
		wrapLeaves(fl.nets[0], mods)
	}
	root := &timedModule{Module: fl.nets[0], kind: "model", rec: batches}

	var stamps []time.Time
	var prefix map[string][]float32
	var prefixErr error
	hists := make([]*train.History, trainWorld)
	errs := make([]error, trainWorld)
	var wg sync.WaitGroup
	t0 := time.Now()
	for r := 0; r < trainWorld; r++ {
		opts := trainOptions(rc.seed)
		opts.Reducer = fl.reds[r]
		var net nn.Module = fl.nets[r]
		if r == 0 {
			net = root
			opts.StepHook = func(step int64) {
				stamps = append(stamps, time.Now())
				if step == prefixSteps {
					prefix, prefixErr = copyState(fl.nets[0])
				}
			}
		}
		wg.Add(1)
		go func(r int, net nn.Module, opts train.Options) {
			defer wg.Done()
			hists[r], errs[r] = train.Fit(net, fl.ds, opts)
		}(r, net, opts)
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if prefixErr != nil {
		return nil, prefixErr
	}

	out := newOutcome()
	out.e2e["setup_s"] = setupS
	out.attempted = len(stamps)
	if len(stamps) != steps {
		return nil, fmt.Errorf("ran %d optimizer steps, want %d", len(stamps), steps)
	}

	// Checks: both ranks hold the same bits, and the 2-worker prefix
	// equals a 1-worker run of the same sync group.
	out.attempted += 2
	s0, err := copyState(fl.nets[0])
	if err != nil {
		return nil, err
	}
	s1, err := copyState(fl.nets[1])
	if err != nil {
		return nil, err
	}
	if !statesEqual(s0, s1) {
		out.failed++
	}
	ref, err := onePrefix(fl.ds, rc.seed)
	if err != nil {
		return nil, err
	}
	if !statesEqual(prefix, ref) {
		out.failed++
	}

	var stepMS []float64
	prev := t0
	for _, s := range stamps {
		stepMS = append(stepMS, float64(s.Sub(prev))/1e6)
		prev = s
	}
	h := hists[0]
	out.e2e["train_loss"] = float64(h.Loss[len(h.Loss)-1])
	var acc float64
	for _, a := range h.TrainAcc {
		acc += a
	}
	out.e2e["accuracy"] = acc / float64(len(h.TrainAcc))
	// Every step does the same work, so every timing metric is the floor
	// of the step (or forward) time (see floorOf) and throughput is a
	// step's samples over it; the pooled figures are printed for
	// reference.
	floor := floorOf(stepMS)
	out.e2e["p50_ms"] = floor
	out.samples["p50_ms"] = len(stepMS)
	out.layer["train.step_p90_ms"] = quantile(stepMS, 0.9)
	out.samples["train.step_p90_ms"] = len(stepMS)
	fwd := batches.durations("model", 0)
	out.e2e["batch_p90_ms"] = ms(floorOf(fwd))
	out.samples["batch_p90_ms"] = len(fwd)
	out.e2e["samples_per_s"] = trainBatch * trainGroup / (floor / 1e3)
	out.e2e["images_per_s"] = out.e2e["samples_per_s"]
	fmt.Printf("optimizer step: floor %.4g ms, median %.4g ms, p90 %.4g ms; %.4g samples/s over the whole run\n",
		floor, median(stepMS), quantile(stepMS, 0.9), float64(steps*trainBatch*trainGroup)/elapsed)

	if rc.traced {
		L := out.layer
		L["train.forward_ms"] = ms(median(fwd))
		bwd := batches.get(true, "model")
		L["train.backward_ms"] = ms(bwd.ns) / float64(bwd.calls)
		images := float64(batches.get(false, "model").images)
		L["nn.conv_overhead_ms"] = ms(mods.get(false, "conv").ns) / images
		L["nn.other_ms"] = ms(mods.get(false, "other").ns) / images
		red := fl.reds[0]
		L["dist.reduce_p50_ms"] = ms(quantile(red.durs, 0.5))
		L["dist.reduce_p90_ms"] = ms(quantile(red.durs, 0.9))
		L["dist.bytes_per_step"] = median(red.bytes)
		L["dist.join_ms"] = median(joins) * 1e3
		out.samples["dist.reduce_p90_ms"] = len(red.durs)
		params := fl.nets[0].Params()
		o := trainOptions(rc.seed)
		opt := train.NewSGD(o.LR, o.Momentum, o.Decay)
		L["train.optimizer_ms"] = ms(float64(timed(21, func() { opt.Step(params) })))
		kernelRows(out, nil, convGeoms(trainModel(), 32, 32))
	}
	return out, nil
}

// onePrefix replays the first prefixSteps optimizer steps on one worker
// with the same sync group and returns the model state after them.
func onePrefix(ds *dataset.Dataset, seed int64) (map[string][]float32, error) {
	net := trainModel()
	var state map[string][]float32
	var stateErr error
	opts := trainOptions(seed)
	opts.Reducer = stopAfter{GradReducer: dist.Local{}, steps: prefixSteps}
	opts.StepHook = func(step int64) {
		if step == prefixSteps {
			state, stateErr = copyState(net)
		}
	}
	if _, err := train.Fit(net, ds, opts); !errors.Is(err, errPrefixDone) {
		return nil, fmt.Errorf("1-worker prefix run: %v", err)
	}
	return state, stateErr
}

func copyState(net nn.Module) (map[string][]float32, error) {
	st, err := nn.StateTensors(net)
	if err != nil {
		return nil, err
	}
	cp := make(map[string][]float32, len(st))
	for k, v := range st {
		cp[k] = append([]float32(nil), v...)
	}
	return cp, nil
}

func statesEqual(a, b map[string][]float32) bool {
	if len(a) == 0 || len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if !bitsEqual(v, b[k]) {
			return false
		}
	}
	return true
}
