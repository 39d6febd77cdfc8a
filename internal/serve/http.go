package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// InferRequest is the POST /v1/infer body: one sample per request (the
// server batches across requests, not within them).
type InferRequest struct {
	// Input is the flattened C*H*W input in NCHW order.
	Input []float32 `json:"input"`
}

// InferResponse is the POST /v1/infer answer.
type InferResponse struct {
	RequestID  string    `json:"request_id"`
	Class      int       `json:"class"`
	Logits     []float32 `json:"logits"`
	BatchSize  int       `json:"batch_size"`
	Generation uint64    `json:"generation"`
	LatencyMS  float64   `json:"latency_ms"`
}

// ReloadRequest is the POST /v1/reload body.
type ReloadRequest struct {
	// Path of the checkpoint to load; empty uses the server's configured
	// default.
	Path string `json:"path"`
}

// ReloadResponse reports the weight generation after a reload.
type ReloadResponse struct {
	Generation uint64 `json:"generation"`
}

// ReplicaStatus is one replica's share of the pool counters.
type ReplicaStatus struct {
	Replica    int    `json:"replica"`
	Served     int64  `json:"served"`
	Batches    int64  `json:"batches"`
	Generation uint64 `json:"generation"`
	Healthy    bool   `json:"healthy"`
	Restarts   int64  `json:"restarts"`
}

// ChaosPanicRequest is the POST /v1/chaos/panic body (chaos builds
// only). Count defaults to 1.
type ChaosPanicRequest struct {
	Count int `json:"count"`
}

// StatusResponse is the GET /v1/status body.
type StatusResponse struct {
	Model           string           `json:"model"`
	Scheme          string           `json:"scheme"`
	InputShape      [3]int           `json:"input_shape"`
	Classes         int              `json:"classes"`
	Generation      uint64           `json:"generation"`
	Served          int64            `json:"served"`
	Rejected        int64            `json:"rejected"`
	Batches         int64            `json:"batches"`
	MeanBatch       float64          `json:"mean_batch"`
	QueueDepth      int              `json:"queue_depth"`
	QueueCap        int              `json:"queue_cap"`
	MaxBatch        int              `json:"max_batch"`
	BatchDeadlineMS float64          `json:"batch_deadline_ms"`
	Replicas        int              `json:"replicas"`
	HealthyReplicas int              `json:"healthy_replicas"`
	PerReplica      []ReplicaStatus  `json:"per_replica"`
	Latency         LatencyBreakdown `json:"latency_ms"`
	Draining        bool             `json:"draining"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// RequestIDHeader carries the per-request correlation id. The handler
// echoes a client-supplied value (or mints one) on the response, in the
// JSON body, and through the batcher, so one id follows a request from
// the load balancer's log to the executor span that answered it.
const RequestIDHeader = "X-ODQ-Request-ID"

// Handler returns the service API:
//
//	POST /v1/infer   one sample in, class + logits out (dynamically batched)
//	POST /v1/reload  hot-swap weights from a checkpoint
//	GET  /v1/status  serving counters, model identity, latency quantiles
//	GET  /healthz    liveness (200 while the process runs)
//	GET  /readyz     readiness (503 while draining — take it out of rotation)
//
// Metrics, traces and pprof live on the separate -debug-addr server
// (telemetry.DebugMux), keeping the serving port minimal.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer", s.handleInfer)
	mux.HandleFunc("/v1/reload", s.handleReload)
	mux.HandleFunc("/v1/status", s.handleStatus)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	if s.cfg.EnableChaos {
		// POST /v1/chaos/panic arms the next N executor passes to panic —
		// the supervised-respawn drill. Only routed when the operator
		// explicitly opted in at startup; absent otherwise, not 403'd.
		mux.HandleFunc("/v1/chaos/panic", s.handleChaosPanic)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // response already committed
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// Request-body bounds. An infer body carries one C·H·W sample of JSON
// floats: inferBytesPerFloat covers the longest float32 encoding
// ("-1.2345678e-05", 14 bytes) plus separator and generous whitespace,
// and bodySlack the object wrapper. The admin bodies hold one small
// field each.
const (
	inferBytesPerFloat = 32
	bodySlack          = 4 << 10
	adminBodyLimit     = 64 << 10
)

// inferBodyLimit is the largest /v1/infer body the server reads.
func (s *Server) inferBodyLimit() int64 {
	return int64(s.cfg.InputC)*int64(s.cfg.InputH)*int64(s.cfg.InputW)*inferBytesPerFloat + bodySlack
}

// decodeBody decodes r's JSON body into v, reading at most limit bytes.
// It answers 413 when the body is larger and 400 when it is malformed,
// and reports whether v was decoded.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v interface{}) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, err)
	} else {
		writeError(w, http.StatusBadRequest, err)
	}
	return false
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req InferRequest
	if !decodeBody(w, r, s.inferBodyLimit(), &req) {
		return
	}
	reqID := r.Header.Get(RequestIDHeader)
	if reqID == "" {
		reqID = fmt.Sprintf("%016x", telemetry.NewTraceID())
	}
	w.Header().Set(RequestIDHeader, reqID)
	resp, err := s.SubmitCtx(r.Context(), req.Input, reqID)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Backpressure: the bounded queue is the admission control. The
		// Retry-After is derived from what the queue is actually doing,
		// not a constant — a loaded pool tells clients to back off longer.
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	select {
	case res := <-resp:
		if res.Err != nil {
			// Shed (client deadline passed in queue) or replica failure.
			w.Header().Set("Retry-After", s.retryAfterSeconds())
			writeError(w, http.StatusServiceUnavailable, res.Err)
			return
		}
		writeJSON(w, http.StatusOK, InferResponse{
			RequestID:  res.RequestID,
			Class:      res.Class,
			Logits:     res.Logits,
			BatchSize:  res.BatchSize,
			Generation: res.Generation,
			LatencyMS:  float64(res.Latency) / float64(time.Millisecond),
		})
	case <-r.Context().Done():
		// Client went away; the batcher's buffered send still succeeds.
		writeError(w, http.StatusServiceUnavailable, r.Context().Err())
	}
}

// retryAfterSeconds estimates when retrying is worth a client's time:
// the p95 queue wait plus one batch deadline, rounded up to whole
// seconds and clamped to [1, 30]. Under light load this is the floor of
// 1s; under a pile-up it grows with the observed queue latency instead
// of inviting an immediate retry storm.
func (s *Server) retryAfterSeconds() string {
	waitMS := stageQuantiles(s.hQueueWait).P95 + float64(s.cfg.BatchDeadline)/float64(time.Millisecond)
	secs := int(math.Ceil(waitMS / 1000))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return strconv.Itoa(secs)
}

func (s *Server) handleChaosPanic(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	req := ChaosPanicRequest{Count: 1}
	if r.ContentLength != 0 && !decodeBody(w, r, adminBodyLimit, &req) {
		return
	}
	if req.Count < 1 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("count must be >= 1, got %d", req.Count))
		return
	}
	s.InjectPanic(req.Count)
	writeJSON(w, http.StatusOK, map[string]int{"armed": req.Count})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var req ReloadRequest
	if r.ContentLength != 0 && !decodeBody(w, r, adminBodyLimit, &req) {
		return
	}
	gen, err := s.Reload(req.Path)
	if err != nil {
		if errors.Is(err, ErrDraining) {
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, ReloadResponse{Generation: gen})
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	st := s.Stats()
	per := make([]ReplicaStatus, len(st.PerReplica))
	for i, r := range st.PerReplica {
		per[i] = ReplicaStatus{
			Replica: i, Served: r.Served, Batches: r.Batches, Generation: r.Generation,
			Healthy: r.Healthy, Restarts: r.Restarts,
		}
	}
	writeJSON(w, http.StatusOK, StatusResponse{
		Model:           s.cfg.ModelName,
		Scheme:          s.Session().Scheme(),
		InputShape:      [3]int{s.cfg.InputC, s.cfg.InputH, s.cfg.InputW},
		Classes:         s.classes,
		Generation:      s.Session().Generation(),
		Served:          st.Served,
		Rejected:        st.Rejected,
		Batches:         st.Batches,
		MeanBatch:       st.MeanBatch,
		QueueDepth:      st.QueueDepth,
		QueueCap:        st.QueueCap,
		MaxBatch:        s.cfg.MaxBatch,
		BatchDeadlineMS: float64(s.cfg.BatchDeadline) / float64(time.Millisecond),
		Replicas:        st.Replicas,
		HealthyReplicas: st.HealthyReplicas,
		PerReplica:      per,
		Latency:         s.LatencyBreakdown(),
		Draining:        s.Draining(),
	})
}

// handleHealthz is pure liveness: as long as the process can answer
// HTTP it is alive, draining or not — restarting a draining server
// would defeat the drain.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Write([]byte("ok\n")) //nolint:errcheck // best-effort liveness probe
}

// handleReadyz is readiness: 503 while draining or with zero healthy
// replicas tells load balancers to stop routing new requests here; a
// degraded pool (some but not all replicas healthy) still answers 200
// so the instance stays in rotation at reduced capacity, with the body
// saying so for operators watching the probe.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		http.Error(w, "draining\n", http.StatusServiceUnavailable)
		return
	}
	healthy, total := s.HealthyReplicas(), len(s.replicas)
	switch {
	case healthy == 0:
		http.Error(w, "no healthy replicas\n", http.StatusServiceUnavailable)
	case healthy < total:
		fmt.Fprintf(w, "degraded (%d/%d replicas)\n", healthy, total)
	default:
		w.Write([]byte("ready\n")) //nolint:errcheck // best-effort readiness probe
	}
}
