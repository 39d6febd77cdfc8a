package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/odqbench/weights"
)

// serve-resnet20: open-loop Poisson arrivals of single images into an
// in-process serve.Server (odq-serve defaults), driven through its HTTP
// handler without sockets. A base phase serves pool images at a fixed low
// rate, in blocks spread over the run, each followed by a burst of queued
// requests that runs full batches. The traced run adds a ladder of rising
// rates that finds the highest rate meeting the p99 limit.
const (
	servePool     = 256             // evaluation images, each served once per pass of the bursts
	baseRate      = 8.0             // requests/s of the base phase, far below capacity
	baseRequests  = 192             // base-phase requests
	p99LimitMS    = 200.0           // the serving SLO
	rungShare     = 1.0 / 12        // one ladder rung lasts this share of -seconds
	ladderStart   = 32.0            // first rung, requests/s
	ladderRatio   = 1.4             // coarse ladder step
	ladderTop     = 2000.0          // the ladder ends here even if every rung passes
	refineRungs   = 2               // bisection rungs inside the bracket the coarse ladder finds
	burstPasses   = 4               // passes over the pool the bursts make, so the run holds enough full batches for their floor
	serveChecks   = 32              // pool images checked bit-for-bit: served logits, unbatched forward, dense reference
	serveMaxBatch = 16              // odq-serve's default max batch (the server runs with defaults)
	drainTimeout  = 5 * time.Second // server shutdown bound
)

// sent is one request's record.
type sent struct {
	img     int
	sched   time.Time
	start   time.Time
	end     time.Time
	status  int
	resp    serve.InferResponse
	decoded bool
}

func (s *sent) latencyMS() float64 { return float64(s.end.Sub(s.sched)) / 1e6 }

// rung is one fixed-rate load phase.
type rung struct {
	rate     float64
	reqs     []sent
	p99      float64
	rejected int
	backlog  int
	score    float64 // ≤ 1 passes: max of p99/limit, backlog and failure criteria
	// superseded marks a failed rung whose rerun at the same rate passed;
	// the fit leaves it out.
	superseded bool
}

type serveRig struct {
	srv     *serve.Server
	handler http.Handler
	sess    *infer.Session
	exec    *core.Exec
	texec   *timedExec   // traced only
	mods    *moduleTimes // traced only
	batches *moduleTimes // whole-model forward per served batch
}

func runServe(rc runConfig) (*outcome, error) {
	man, err := weights.Load(rc.weights)
	if err != nil {
		return nil, err
	}
	rec, err := man.Get("resnet20")
	if err != nil {
		return nil, err
	}
	pool := evalPool(servePool)
	bodies := make([][]byte, pool.Len())
	chw := 3 * 32 * 32
	for i := range bodies {
		b, err := json.Marshal(serve.InferRequest{Input: pool.X.Data[i*chw : (i+1)*chw]})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	rng := rand.New(rand.NewSource(rc.seed))
	checkImgs := rng.Perm(pool.Len())[:serveChecks]

	// Set-up: checkpoint load, session and server build, warmup.
	rig, setupS, err := setupMedian(3, func() (*serveRig, error) {
		return buildServeRig(rc, rec)
	}, func(*serveRig) {}) // a discarded server was never started: nothing runs
	if err != nil {
		return nil, err
	}

	// Reference logits for the checked images, unbatched, before the
	// server owns the session.
	refs := map[int][]float32{}
	for _, i := range checkImgs {
		x, _ := pool.Batch([]int{i})
		refs[i] = append([]float32(nil), rig.sess.Forward(x).Data...)
	}
	// The same images through the dense reference executor: the sparse
	// path the server runs must reproduce it bit for bit.
	dense, err := denseReference(rc.weights, rec)
	if err != nil {
		return nil, err
	}
	denseFailed := 0
	for _, i := range checkImgs {
		x, _ := pool.Batch([]int{i})
		if !bitsEqual(refs[i], dense.Forward(x).Data) {
			denseFailed++
		}
	}
	rig.batches.reset()
	if rig.texec != nil {
		rig.exec.Reset()
		rig.texec.reset()
		rig.mods.reset()
	}
	rig.srv.Start()

	// The base phase serves seed-chosen pool images at the base rate, in
	// timingBlocks blocks spread over the run, each followed by a burst
	// that queues its share of burstPasses passes over the pool at once.
	// The base rate is low enough that requests rarely queue behind each
	// other; the bursts run full batches. Spreading both over the run
	// lets quietQuantile and floorOf find the stretches the host left
	// alone wherever they fall.
	order := rng.Perm(pool.Len())[:baseRequests]
	per := len(order) / timingBlocks
	var burstImgs []int
	for p := 0; p < burstPasses; p++ {
		burstImgs = append(burstImgs, rng.Perm(pool.Len())...)
	}
	perBurst := len(burstImgs) / timingBlocks
	var base, bursts []sent
	var full []float64 // model forward of each full batch in the bursts
	blocks := 0
	baseBlock := func() {
		if blocks < timingBlocks {
			base = append(base, fire(rig.handler, bodies, order[blocks*per:(blocks+1)*per], baseRate, rng)...)
			reqs, durs := burstPhase(rig, bodies, burstImgs[blocks*perBurst:(blocks+1)*perBurst], rng)
			bursts = append(bursts, reqs...)
			full = append(full, durs...)
			blocks++
		}
	}
	baseBlock()

	// Ladder (traced runs): coarse rungs until one fails twice, then
	// bisect the bracket.
	var rungs []*rung
	next := func(rate float64) *rung {
		baseBlock()
		imgs := make([]int, int(rate*rungShare*rc.seconds))
		for i := range imgs {
			imgs[i] = rng.Intn(pool.Len())
		}
		r := &rung{rate: rate, reqs: fire(rig.handler, bodies, imgs, rate, rng)}
		r.grade()
		rungs = append(rungs, r)
		return r
	}
	// A failing coarse rung runs once more before it ends the ladder: a
	// host stall in one short rung is not the server's limit.
	var lo, hi *rung
	for rate := ladderStart; rc.traced && rate <= ladderTop; rate *= ladderRatio {
		r := next(rate)
		if r.score > 1 {
			retry := next(rate)
			r.superseded = retry.score <= 1
			r = retry
		}
		if r.score > 1 {
			hi = r
			break
		}
		lo = r
	}
	for i := 0; i < refineRungs && lo != nil && hi != nil; i++ {
		r := next(math.Sqrt(lo.rate * hi.rate))
		if r.score > 1 {
			hi = r
		} else {
			lo = r
		}
	}
	for blocks < timingBlocks {
		baseBlock()
	}
	if err := rig.srv.Drain(drainTimeout); err != nil {
		return nil, err
	}

	out := newOutcome()
	out.e2e["setup_s"] = setupS

	// Checks and accounting. The scheduled requests (base phase and
	// rungs) come first, the bursts last.
	var all []sent
	all = append(all, base...)
	for _, r := range rungs {
		all = append(all, r.reqs...)
	}
	all = append(all, bursts...)
	out.attempted = len(all) + len(checkImgs)
	out.failed = denseFailed
	for i := range all {
		s := &all[i]
		if s.status != http.StatusOK {
			continue
		}
		if !s.decoded || len(s.resp.Logits) != pool.Classes || s.resp.Class != argmax(s.resp.Logits) {
			out.failed++
			continue
		}
		if ref, ok := refs[s.img]; ok && !bitsEqual(ref, s.resp.Logits) {
			out.failed++
		}
	}
	for _, phase := range [][]sent{base, bursts} {
		for i := range phase {
			if phase[i].status != http.StatusOK {
				out.failed++ // below capacity or within the queue: nothing may be refused
			}
		}
	}

	// End-to-end metrics: latency at the base rate, accuracy and loss
	// over the pool (the first pass of the bursts serves each image once).
	var lat []float64
	for i := range base {
		lat = append(lat, base[i].latencyMS())
	}
	var correct int
	var loss float64
	pass1 := bursts[:pool.Len()]
	for i := range pass1 {
		s := &pass1[i]
		if s.decoded && len(s.resp.Logits) == pool.Classes {
			label := pool.Y[s.img]
			if s.resp.Class == label {
				correct++
			}
			loss += crossEntropy(s.resp.Logits, label)
		}
	}
	out.e2e["p50_ms"] = quietQuantile(lat, 0.5)
	out.samples["p50_ms"] = len(lat)
	// The tail percentiles are reported with the per-layer metrics: they
	// follow the host's speed more than the program's (see NOTES.md).
	out.layer["serve.latency_p90_ms"] = quietQuantile(lat, 0.90)
	out.layer["serve.latency_p99_ms"] = quietQuantile(lat, 0.99)
	out.samples["serve.latency_p90_ms"], out.samples["serve.latency_p99_ms"] = len(lat), len(lat)
	fmt.Printf("base latency over the whole phase: p50 %.4g ms, p90 %.4g ms, p99 %.4g ms\n",
		quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99))
	out.e2e["accuracy"] = float64(correct) / float64(len(pass1))
	out.e2e["train_loss"] = loss / float64(len(pass1))
	// Peak throughput: the floor of the model forward over the full
	// batches the bursts ran (every one does the same work, see floorOf).
	if len(full) == 0 {
		return nil, fmt.Errorf("the bursts ran no full batch of %d", serveMaxBatch)
	}
	floor := floorOf(full)
	out.e2e["batch_p90_ms"] = ms(floor)
	out.samples["batch_p90_ms"] = len(full)
	out.e2e["images_per_s"] = serveMaxBatch / (floor / 1e9)
	out.e2e["samples_per_s"] = out.e2e["images_per_s"]
	fmt.Printf("bursts: full-batch forward floor %.4g ms, median %.4g ms over %d full batches\n",
		ms(floor), ms(median(full)), len(full))

	if rc.traced {
		out.layer["serve.slo_rps"] = sloRate(lo, hi, rungs)
		out.samples["serve.slo_rps"] = len(rungs)
		ladder := ""
		for _, r := range rungs {
			ladder += fmt.Sprintf(" %.0f/s:p99=%.0fms,rej=%d,score=%.2f", r.rate, r.p99, r.rejected, r.score)
		}
		fmt.Printf("ladder (limit p99 %.0f ms):%s\n", p99LimitMS, ladder)
		serveLayers(out, rig, rec, all, len(all)-len(bursts), pool)
	}
	return out, nil
}

// burstPhase queues imgs at once, so the batcher runs full batches (the
// admission queue holds every request), and returns the responses with
// the model forward time of each full batch.
func burstPhase(rig *serveRig, bodies [][]byte, imgs []int, rng *rand.Rand) ([]sent, []float64) {
	rig.batches.reset()
	reqs := fire(rig.handler, bodies, imgs, math.Inf(1), rng)
	return reqs, rig.batches.durations("model", serveMaxBatch)
}

func buildServeRig(rc runConfig, rec *weights.Model) (*serveRig, error) {
	net, err := loadModel(rc.weights, rec)
	if err != nil {
		return nil, err
	}
	rig := &serveRig{batches: newModuleTimes(true)}
	var opts []core.Option
	if rc.traced {
		opts = append(opts, core.WithProfiling())
		rig.mods = newModuleTimes(false)
		wrapLeaves(net, rig.mods)
	}
	rig.exec = core.NewExec(rec.Threshold, opts...)
	var exec infer.Executor = rig.exec
	if rc.traced {
		rig.texec = newTimedExec(rig.exec)
		exec = rig.texec
	}
	model := &timedModule{Module: net, kind: "model", rec: rig.batches}
	rig.sess = infer.NewSessionFromExecutor(model, "odq", exec, true)
	warm := tensor.New(serveMaxBatch, 3, 32, 32)
	rig.sess.Forward(warm)
	for i := 0; i < 3; i++ {
		rig.sess.Forward(tensor.New(1, 3, 32, 32))
	}
	// A fresh registry gives this server its own latency histograms.
	telemetry.SetDefault(telemetry.NewRegistry())
	rig.srv, err = serve.New(rig.sess, serve.Config{ModelName: rec.Name, InputC: 3, InputH: 32, InputW: 32})
	if err != nil {
		return nil, err
	}
	rig.handler = rig.srv.Handler()
	return rig, nil
}

// fire sends one request per image of imgs with Poisson arrivals at
// rate (all at once for an infinite rate), one goroutine per due request,
// and returns once every response is in. Latency counts from each
// request's scheduled send time.
func fire(h http.Handler, bodies [][]byte, imgs []int, rate float64, rng *rand.Rand) []sent {
	reqs := make([]sent, len(imgs))
	t := time.Now()
	for i := range reqs {
		t = t.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		reqs[i] = sent{img: imgs[i], sched: t}
	}
	var wg sync.WaitGroup
	for i := range reqs {
		if d := time.Until(reqs[i].sched); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(s *sent) {
			defer wg.Done()
			s.start = time.Now()
			req := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(bodies[s.img]))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			s.end = time.Now()
			s.status = w.Code
			if w.Code == http.StatusOK {
				s.decoded = json.Unmarshal(w.Body.Bytes(), &s.resp) == nil
			}
		}(&reqs[i])
	}
	wg.Wait()
	return reqs
}

// grade scores a rung: it passes (score ≤ 1) when its p99 meets the
// limit, under 1% of its requests were refused, and the requests still
// outstanding when the last one was sent do not exceed what the rate
// sustains at the limit latency (no growing backlog).
func (r *rung) grade() {
	var lat []float64
	last := r.reqs[len(r.reqs)-1].sched
	for i := range r.reqs {
		s := &r.reqs[i]
		lat = append(lat, s.latencyMS())
		if s.status != http.StatusOK {
			r.rejected++
		}
		if s.end.After(last) {
			r.backlog++
		}
	}
	r.p99 = quantile(lat, 0.99)
	allowed := math.Max(serveMaxBatch, r.rate*p99LimitMS/1000)
	r.score = math.Max(r.p99/p99LimitMS, float64(r.backlog)/allowed)
	if fail := float64(r.rejected) / float64(len(r.reqs)); fail >= 0.01 {
		r.score = math.Max(r.score, 1+100*fail)
	}
}

// sloRate estimates the rate at which the rung score crosses 1. It fits
// log(score) against log(rate) by least squares over the rungs whose
// score lies within a factor of four of the limit, so one rung's noisy
// p99 does not decide the result and the estimate moves smoothly with
// capacity instead of stepping with the ladder; the fit is clamped to the
// bracket of the last passing and the first failing rung.
func sloRate(lo, hi *rung, rungs []*rung) float64 {
	switch {
	case hi == nil: // every rung passed
		return rungs[len(rungs)-1].rate
	case lo == nil: // the first rung failed: bracket from the base rate
		lo = &rung{rate: baseRate, score: 0.5}
	}
	var n, sx, sy, sxx, sxy float64
	for _, r := range rungs {
		if r.superseded || r.score < 0.25 || r.score > 4 {
			continue
		}
		x, y := math.Log(r.rate), math.Log(r.score)
		n, sx, sy, sxx, sxy = n+1, sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	logLo, logHi := math.Log(lo.rate), math.Log(hi.rate)
	var x float64
	if den := n*sxx - sx*sx; n >= 3 && den > 0 && n*sxy-sx*sy > 0 {
		slope := (n*sxy - sx*sy) / den
		x = (0 - (sy-slope*sx)/n) / slope
	} else {
		f := -math.Log(lo.score) / (math.Log(hi.score) - math.Log(lo.score))
		x = logLo + f*(logHi-logLo)
	}
	return math.Exp(math.Max(logLo, math.Min(logHi, x)))
}

// serveLayers fills the per-layer table of a traced serve run. The first
// scheduled entries of all arrived on a schedule; the rest are bursts.
func serveLayers(out *outcome, rig *serveRig, rec *weights.Model, all []sent, scheduled int, pool *dataset.Dataset) {
	var lags, httpUS []float64
	var batchSum, n200 float64
	var rejected int
	for i := range all {
		s := &all[i]
		if i < scheduled {
			lags = append(lags, float64(s.start.Sub(s.sched))/1e6)
		}
		if s.status == http.StatusTooManyRequests {
			rejected++
		}
		if s.decoded {
			batchSum += float64(s.resp.BatchSize)
			n200++
			httpUS = append(httpUS, float64(s.end.Sub(s.start))/1e3-s.resp.LatencyMS*1e3)
		}
	}
	L := out.layer
	L["loadgen.lag_p99_ms"] = quantile(lags, 0.99)
	bd := rig.srv.LatencyBreakdown()
	L["serve.queue_wait_p50_ms"] = bd.QueueWait.P50
	L["serve.queue_wait_p99_ms"] = bd.QueueWait.P99
	L["serve.execute_p50_ms"] = bd.Execute.P50
	L["serve.batch_mean"] = batchSum / n200
	L["serve.rejected"] = float64(rejected)
	L["serve.http_us"] = median(httpUS)
	out.samples["loadgen.lag_p99_ms"] = len(lags)
	out.samples["serve.queue_wait_p99_ms"] = int(bd.QueueWait.Count)
	out.samples["serve.execute_p50_ms"] = int(bd.Execute.Count)

	// Per-layer wall time of what the server ran.
	images := 0
	convModule := rig.mods.get(false, "conv")
	if convModule != nil {
		images = convModule.images / len(nn.Convs(rig.sess.Net()))
	}
	var execMS float64
	rig.texec.mu.Lock()
	for name, s := range rig.texec.conv {
		L["core.conv_ms."+name] = s.msPerImage()
		execMS += s.msPerImage()
	}
	rig.texec.mu.Unlock()
	if images > 0 {
		L["nn.conv_overhead_ms"] = ms(convModule.ns)/float64(images) - execMS
		L["nn.other_ms"] = ms(rig.mods.get(false, "other").ns) / float64(images)
	}
	profiles := snapshotProfiles(rig.exec)
	modeled(out, profiles, func(name string) float64 { return L["core.conv_ms."+name] })

	// Direct calls on the drained server's session.
	sess := rig.srv.Session()
	x1, _ := pool.Batch([]int{0})
	idx16 := make([]int, 16)
	for i := range idx16 {
		idx16[i] = i
	}
	x16, _ := pool.Batch(idx16)
	b1 := timed(20, func() { sess.Forward(x1) })
	b16 := timed(5, func() { sess.Forward(x16) })
	L["infer.forward_b1_ms"] = ms(float64(b1))
	L["infer.forward_b16_ms"] = ms(float64(b16))
	L["infer.batch_gain"] = 16 * float64(b1) / float64(b16)
	L["infer.allocs_per_forward"] = allocsPerCall(10, func() { sess.Forward(x1) })

	kernelRows(out, profiles, firstConv(rec))
}

// allocsPerCall is the mean heap allocation count of one call of f.
func allocsPerCall(n int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}
