// Command odq-serve is the production inference service: it loads a
// checkpoint into a pool of resident infer.Sessions (-replicas) and
// serves an HTTP/JSON API with cross-request dynamic batching,
// bounded-queue admission control, round-robin batch dispatch across
// replicas, hot weight reload (POST /v1/reload or SIGHUP, applied to
// every replica) and graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	odq-serve -model resnet20 -dataset c10 -ckpt resnet20.ckpt \
//	    -scheme odq -threshold 0.5 -addr :8080 -debug-addr :6060
//
// API:
//
//	POST /v1/infer   {"input":[...C*H*W floats...]} → class + logits
//	POST /v1/reload  {"path":"new.ckpt"}            → new generation
//	GET  /v1/status  serving counters + latency-stage quantiles
//	GET  /healthz    liveness (always 200 while the process runs)
//	GET  /readyz     readiness (503 while draining or with zero healthy
//	                 replicas; 200 "degraded (h/R replicas)" in between)
//
// Replicas are supervised: a panic in an executor pass answers that
// batch with errors (HTTP 503 + Retry-After), marks the replica
// unhealthy, and respawns it with a fresh session after -respawn-delay,
// up to -max-respawns times. With -chaos, POST /v1/chaos/panic injects
// such a panic on demand — the drill scripts/chaos_smoke.sh runs.
//
// Metrics (request-latency and batch-size histograms, QPS, queue
// depth), Prometheus /metrics, traces and pprof live on -debug-addr.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/telemetry/olog"
	"repro/internal/telemetry/telemetryflag"
)

func main() {
	modelName := flag.String("model", "resnet20", "model architecture (must match the checkpoint)")
	dsName := flag.String("dataset", "c10", "dataset the model was trained for: c10, c100 or mnist (fixes input shape and classes)")
	scale := flag.Float64("width", 0.25, "channel width multiplier (must match the checkpoint)")
	qatBits := flag.Int("qat", 4, "QAT bit width the model was built with")
	ckpt := flag.String("ckpt", "", "checkpoint path (empty = randomly initialized; also the SIGHUP reload default)")
	scheme := flag.String("scheme", "odq", "scheme: "+infer.SchemeHelp())
	threshold := flag.Float64("threshold", 0.5, "ODQ sensitivity threshold")
	packed := flag.Bool("packed", false, "serve through the packed-INT4 quantized-domain pipeline (odq scheme, flat sequential models e.g. vgg16)")
	seed := flag.Int64("seed", 1, "init seed when no checkpoint is given")
	addr := flag.String("addr", "127.0.0.1:8080", "serving address (use :0 for an ephemeral port; the bound address is printed)")
	maxBatch := flag.Int("max-batch", 16, "flush a batch at this many requests")
	batchDeadline := flag.Duration("batch-deadline", 2*time.Millisecond, "flush a non-empty batch this long after its first request")
	queueDepth := flag.Int("queue-depth", 256, "admission queue bound; overflow gets HTTP 429")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to finish accepted requests on shutdown")
	replicas := flag.Int("replicas", 1, "resident session replicas; batches are dispatched round-robin across them")
	maxRespawns := flag.Int("max-respawns", 3, "supervisor respawns per replica before it is tombstoned")
	respawnDelay := flag.Duration("respawn-delay", 100*time.Millisecond, "pause before respawning a panicked replica")
	chaos := flag.Bool("chaos", false, "expose POST /v1/chaos/panic (inject a replica panic; chaos drills only, never production)")
	tf := telemetryflag.Register(flag.CommandLine)
	flag.Parse()

	if *scale <= 0 {
		fail("-width must be > 0 (got %g)", *scale)
	}
	if *qatBits < 0 || *qatBits > 16 {
		fail("-qat must be in [0,16] (got %d)", *qatBits)
	}
	if *threshold < 0 {
		fail("-threshold must be >= 0 (got %g)", *threshold)
	}
	if _, err := infer.SchemeByName(*scheme); err != nil {
		fail("%v", err)
	}
	if *replicas < 1 {
		fail("-replicas must be >= 1 (got %d)", *replicas)
	}

	classes, c, h, w := 10, 3, 32, 32
	switch *dsName {
	case "c10":
	case "c100":
		classes = 100
	case "mnist":
		c, h, w = 1, 28, 28
	default:
		fail("unknown dataset %q (want c10, c100 or mnist)", *dsName)
	}

	telemetry.SetRole("serve")
	flushTelemetry, err := tf.Activate()
	if err != nil {
		fail("%v", err)
	}

	sessOpts := []infer.Option{infer.WithThreshold(float32(*threshold))}
	if *packed {
		sessOpts = append(sessOpts, infer.WithPackedDomain())
	}
	// Every replica owns a full model instance loaded from the same
	// checkpoint (or built from the same seed): replica invariance —
	// identical weights, bit-identical answers — is what makes the
	// round-robin dispatch invisible to clients.
	newSession := func() (*infer.Session, error) {
		model, err := infer.LoadModel(*modelName, models.Config{
			Classes: classes, Scale: *scale, QATBits: *qatBits, Seed: *seed,
		}, *ckpt)
		if err != nil {
			return nil, err
		}
		return infer.NewSession(model, *scheme, sessOpts...)
	}
	sessions := make([]*infer.Session, *replicas)
	for i := range sessions {
		var err error
		if sessions[i], err = newSession(); err != nil {
			fail("%v", err)
		}
	}

	srv, err := serve.NewReplicated(sessions, serve.Config{
		ModelName: *modelName,
		InputC:    c, InputH: h, InputW: w,
		MaxBatch:      *maxBatch,
		BatchDeadline: *batchDeadline,
		QueueDepth:    *queueDepth,
		CkptPath:      *ckpt,
		// The supervisor respawns a panicked replica through the same
		// load path that built the pool, so respawned sessions keep the
		// replica-invariance contract by construction.
		SessionFactory: newSession,
		MaxRespawns:    *maxRespawns,
		RespawnDelay:   *respawnDelay,
		EnableChaos:    *chaos,
	})
	if err != nil {
		fail("%v", err)
	}
	srv.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("%v", err)
	}
	// The url attr is load-bearing: scripts/serve_smoke.sh parses it to
	// find the ephemeral port behind -addr :0.
	olog.Info("odq-serve listening",
		"url", "http://"+ln.Addr().String(),
		"model", *modelName, "scheme", *scheme,
		"input", fmt.Sprintf("%dx%dx%d", c, h, w),
		"max_batch", *maxBatch, "deadline", *batchDeadline,
		"replicas", srv.Replicas())

	// Bound how long a client may hold a connection without sending a
	// full request; inference itself is bounded by the queue, not here.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	for {
		select {
		case err := <-serveErr:
			fail("%v", err)
		case sig := <-sigs:
			if sig == syscall.SIGHUP {
				// Hot reload from the configured default checkpoint.
				gen, err := srv.Reload("")
				if err != nil {
					olog.Error("SIGHUP reload failed", "err", err)
				} else {
					olog.Info("SIGHUP reload ok", "generation", gen)
				}
				continue
			}
			// Graceful drain: stop admission, finish every accepted
			// request, then close the HTTP side.
			olog.Info("draining", "signal", sig.String(), "timeout", *drainTimeout)
			if err := srv.Drain(*drainTimeout); err != nil {
				olog.Error("drain failed", "err", err)
				os.Exit(1)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			err := httpSrv.Shutdown(ctx)
			cancel()
			if err != nil {
				olog.Warn("http shutdown", "err", err)
			}
			st := srv.Stats()
			olog.Info("drained",
				"served", st.Served, "rejected", st.Rejected,
				"batches", st.Batches, "mean_batch", fmt.Sprintf("%.2f", st.MeanBatch))
			if err := flushTelemetry(); err != nil {
				fail("%v", err)
			}
			return
		}
	}
}

// fail prints a one-line actionable message and exits 1.
func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "odq-serve: "+format+"\n", args...)
	os.Exit(1)
}
