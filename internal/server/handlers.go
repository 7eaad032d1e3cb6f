package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	learnrisk "repro"
	"repro/internal/match"
)

// The wire format. Every response is JSON; errors come back as
// {"error": "..."} with a 4xx/5xx status. A pair travels as its two raw
// attribute-value slices in the model's schema order — exactly the
// learnrisk.Pair the facade takes.

// PairRequest is the body of POST /v1/score and POST /v1/explain.
type PairRequest struct {
	Left  []string `json:"left"`
	Right []string `json:"right"`
}

// ScoreResponse is one pair's verdict plus the fingerprint of the model
// snapshot that produced it (relevant under hot-swap).
type ScoreResponse struct {
	Prob             float64 `json:"prob"`
	Match            bool    `json:"match"`
	Risk             float64 `json:"risk"`
	Mu               float64 `json:"mu"`
	Sigma            float64 `json:"sigma"`
	ModelFingerprint string  `json:"model_fingerprint"`
}

// BatchRequest is the body of POST /v1/score/batch.
type BatchRequest struct {
	Pairs []PairRequest `json:"pairs"`
}

// BatchResponse answers a client-assembled batch; Scores is in request
// order and the whole batch is scored on one model snapshot.
type BatchResponse struct {
	Scores           []ScoreResponse `json:"scores"`
	ModelFingerprint string          `json:"model_fingerprint"`
}

// ExplainResponse is a verdict with its interpretable risk decomposition,
// most influential feature first.
type ExplainResponse struct {
	ScoreResponse
	Explanation []string `json:"explanation"`
}

// ModelResponse describes the currently-served model (GET /v1/model).
type ModelResponse struct {
	Fingerprint     string           `json:"fingerprint"`
	EnvelopeVersion int              `json:"envelope_version"`
	NumFeatures     int              `json:"num_features"`
	Schema          []learnrisk.Attr `json:"schema"`
	Swaps           int64            `json:"swaps"`
	Served          int64            `json:"served"`
}

// ReloadRequest is the body of POST /v1/model/reload. An empty Path falls
// back to the artifact the server was started with; Force permits swapping
// in a model with a different schema fingerprint.
type ReloadRequest struct {
	Path  string `json:"path"`
	Force bool   `json:"force"`
}

// ReloadResponse reports a completed hot-swap.
type ReloadResponse struct {
	OldFingerprint string `json:"old_fingerprint"`
	NewFingerprint string `json:"new_fingerprint"`
	Swaps          int64  `json:"swaps"`
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
}

// maxBodyBytes bounds request bodies (a batch of a few thousand pairs fits
// comfortably; a runaway client does not).
const maxBodyBytes = 32 << 20

// Handler returns the server's HTTP API:
//
//	POST   /v1/score         score one pair
//	POST   /v1/score/batch   score a client-assembled batch
//	POST   /v1/explain       score one pair and explain its risk
//	POST   /v1/records       add + index one record in the online store
//	DELETE /v1/records/{id}  tombstone one record
//	POST   /v1/resolve       top-k matches for a probe record
//	POST   /v1/snapshot      cut a durable-store snapshot now (admin)
//	GET    /v1/model         describe the served model
//	POST   /v1/model/reload  hot-swap the model from an artifact file
//	GET    /healthz          liveness + served-model fingerprint
//	GET    /readyz           readiness (503 + reason until warm)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/score", s.handleScore)
	mux.HandleFunc("POST /v1/score/batch", s.handleScoreBatch)
	mux.HandleFunc("POST /v1/explain", s.handleExplain)
	mux.HandleFunc("POST /v1/records", s.handleAddRecord)
	mux.HandleFunc("DELETE /v1/records/{id}", s.handleDeleteRecord)
	mux.HandleFunc("POST /v1/resolve", s.handleResolve)
	mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /v1/model", s.handleModel)
	mux.HandleFunc("POST /v1/model/reload", s.handleReload)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.metrics != nil {
		mux.Handle("GET /metrics", s.metrics.reg.Handler())
	}
	return mux
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	var req PairRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	tr := s.metrics.begin()
	score, fp, err := s.Score(learnrisk.Pair{Left: req.Left, Right: req.Right})
	s.metrics.finish(reqScore, tr)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, toScoreResponse(score, fp))
}

func (s *Server) handleScoreBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Pairs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("batch has no pairs"))
		return
	}
	pairs := make([]learnrisk.Pair, len(req.Pairs))
	for i, p := range req.Pairs {
		pairs[i] = learnrisk.Pair{Left: p.Left, Right: p.Right}
	}
	scores, fp, err := s.ScoreBatch(pairs)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	resp := BatchResponse{Scores: make([]ScoreResponse, len(scores)), ModelFingerprint: fp}
	for i, sc := range scores {
		resp.Scores[i] = toScoreResponse(sc, fp)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req PairRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	score, why, fp, err := s.Explain(learnrisk.Pair{Left: req.Left, Right: req.Right})
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, ExplainResponse{
		ScoreResponse: toScoreResponse(score, fp),
		Explanation:   why,
	})
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	m := s.Model()
	writeJSON(w, http.StatusOK, ModelResponse{
		Fingerprint:     m.Fingerprint(),
		EnvelopeVersion: m.EnvelopeVersion(),
		NumFeatures:     m.NumFeatures(),
		Schema:          m.Schema(),
		Swaps:           s.Swaps(),
		Served:          s.Served(),
	})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req ReloadRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	oldFP, newFP, err := s.Reload(req.Path, req.Force)
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrFingerprintConflict), errors.Is(err, ErrDurableSchemaSwap):
			status = http.StatusConflict
		case errors.Is(err, ErrNoArtifactPath):
			status = http.StatusBadRequest
		case errors.Is(err, ErrPathOutsideArtifactDir):
			status = http.StatusForbidden
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, ReloadResponse{
		OldFingerprint: oldFP,
		NewFingerprint: newFP,
		Swaps:          s.Swaps(),
	})
}

// handleHealthz is the liveness probe: 200 whenever the process can answer
// HTTP at all. Readiness (model loaded, warm-load finished) is /readyz's
// job — conflating the two makes orchestrators restart replicas that are
// merely still warming.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{
		"status": "ok",
		"model":  s.Model().Fingerprint(),
	})
}

func toScoreResponse(sc learnrisk.PairScore, fp string) ScoreResponse {
	return ScoreResponse{
		Prob: sc.Prob, Match: sc.Match, Risk: sc.Risk, Mu: sc.Mu, Sigma: sc.Sigma,
		ModelFingerprint: fp,
	}
}

// decodeJSON reads one JSON body into dst, rejecting trailing garbage and
// unknown fields loudly; on failure it has already written the 400.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
		return false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, errors.New("request body has trailing data after the JSON document"))
		return false
	}
	return true
}

// statusFor maps scoring, resolving and record errors to statuses: a
// loading or closed store is a 503, a snapshot without a durable store a
// 409, a full ingest queue a 429, and malformed pairs, records and probes
// (schema arity) a 400; everything else is a 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrStoreLoading):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNoDurableStore):
		return http.StatusConflict
	case errors.Is(err, ErrBackpressure):
		return http.StatusTooManyRequests
	case errors.Is(err, match.ErrDurableClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, learnrisk.ErrPairArity), errors.Is(err, match.ErrArity):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
