package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"autotune/internal/sched"
	"autotune/internal/studystore"
	"autotune/internal/trial"
)

// handlers.go translates HTTP to session operations. Every handler
// derives its context from the request (the deadline middleware in
// ServeHTTP already bounded it), validates inputs into typed forms, and
// maps session errors onto statuses: client mistakes 400, unknown study
// 404, read-only/exhausted 409, oversized body 413, shed load 429, panics
// and unencodable responses 500, degraded store 503, missed deadline 504.

// maxBodyBytes bounds request bodies; observe batches are the largest
// legitimate payloads.
const maxBodyBytes = 8 << 20

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/studies", s.handleCreate)
	mux.HandleFunc("GET /v1/studies", s.handleList)
	mux.HandleFunc("POST /v1/studies/{study}/suggest", s.handleSuggest)
	mux.HandleFunc("POST /v1/studies/{study}/observe", s.handleObserve)
	mux.HandleFunc("GET /v1/studies/{study}/best", s.handleBest)
	mux.HandleFunc("GET /v1/studies/{study}/pareto", s.handlePareto)
	mux.HandleFunc("GET /v1/studies/{study}/trials", s.handleTrials)
	return mux
}

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// respond is the one place a response body is written. encode appends the
// whole body to a pooled buffer before the status line is sent, so a failed
// encode is a 500 with the error envelope, never a 2xx with half a body. A
// failed Write means the client went away, which is only worth a counter.
func (s *Server) respond(w http.ResponseWriter, status int, encode func(dst []byte) ([]byte, error)) {
	bp := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(bp)
	body, err := encode((*bp)[:0])
	if err != nil {
		s.logf("encode %d response: %v", status, err)
		s.writeError(w, http.StatusInternalServerError, "encode_failed", "encode response: "+err.Error())
		return
	}
	if cap(body) <= 1<<20 { // one huge trials listing is not worth pinning in the pool
		*bp = body
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		s.m.writeErrs.Add(1)
	}
}

// writeJSON responds with v as encoding/json writes it (every body but a 200 suggest's).
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	s.respond(w, status, func(dst []byte) ([]byte, error) {
		buf := bytes.NewBuffer(dst)
		err := json.NewEncoder(buf).Encode(v)
		return buf.Bytes(), err
	})
}

// writeError writes the error envelope; 429s carry Retry-After so shed
// clients know to back off rather than hammer.
func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	s.writeJSON(w, status, errorResponse{Error: msg, Code: code})
}

// decode reads a JSON body into v; an empty body leaves v zero (useful
// for suggest, where everything is optional). Returns false after
// writing a 400, or a 413 for a body over maxBodyBytes.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		status, code := http.StatusBadRequest, "bad_body"
		if errors.As(err, new(*http.MaxBytesError)) {
			status, code = http.StatusRequestEntityTooLarge, "body_too_large"
		}
		s.writeError(w, status, code, "read body: "+err.Error())
		return false
	}
	if len(bytes.TrimSpace(body)) == 0 {
		return true
	}
	if err := json.Unmarshal(body, v); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_json", "decode body: "+err.Error())
		return false
	}
	return true
}

// writeSessionError maps a session/store error onto an HTTP status.
func (s *Server) writeSessionError(w http.ResponseWriter, err error) {
	var sf *storeFailure
	switch {
	case errors.As(err, &sf):
		s.failStore(err)
		s.writeError(w, http.StatusServiceUnavailable, "store_failed", "durable store failed; server is read-only: "+err.Error())
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.m.deadlines.Add(1)
		s.writeError(w, http.StatusGatewayTimeout, "deadline", err.Error())
	case errors.Is(err, trial.ErrReadOnly):
		s.writeError(w, http.StatusConflict, "read_only", err.Error())
	case errors.Is(err, errExhausted):
		s.writeError(w, http.StatusConflict, "exhausted", "search space exhausted")
	case errors.Is(err, sched.ErrPanic):
		s.m.panics.Add(1)
		// The first line is the panic value; the stack after it is for the log.
		what, _, _ := strings.Cut(err.Error(), "\n")
		s.writeError(w, http.StatusInternalServerError, "panic", "optimizer panicked; study degraded to read-only: "+what)
	case errors.Is(err, studystore.ErrPoisoned):
		s.failStore(err)
		s.writeError(w, http.StatusServiceUnavailable, "store_failed", err.Error())
	default:
		s.writeError(w, http.StatusBadRequest, "bad_request", err.Error())
	}
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !studyNameRE.MatchString(req.Study) {
		s.writeError(w, http.StatusBadRequest, "bad_study", "study name must match "+studyNameRE.String())
		return
	}
	if req.Optimizer == "" {
		req.Optimizer = s.opts.DefaultOptimizer
	}
	meta := studyMeta{Meta: 1, Study: req.Study, Optimizer: req.Optimizer, Seed: req.Seed, Space: req.Space}

	sh := s.enter(w, req.Study)
	if sh == nil {
		return
	}
	defer sh.drainMu.RUnlock()

	// createMu serializes check-then-append so two racing creates cannot
	// both write a meta record; the meta append is the durability barrier
	// that makes the study survive a crash the instant it is acked. The
	// lock is per shard — study→shard is a stable hash, so two creates of
	// the same name always contend on the same mutex.
	sh.createMu.Lock()
	defer sh.createMu.Unlock()
	if existing := sh.session(req.Study); existing != nil {
		if sameSpec(existing.meta, meta) {
			s.writeJSON(w, http.StatusOK, createResponse{
				Study: req.Study, Optimizer: existing.meta.Optimizer,
				Created: false, Trials: int(existing.observed.Load()),
			})
			return
		}
		s.writeError(w, http.StatusConflict, "spec_mismatch", "study exists with a different spec")
		return
	}
	if s.nstudies.Load() >= int64(s.opts.MaxStudies) {
		s.writeError(w, http.StatusServiceUnavailable, "capacity", "study limit reached")
		return
	}
	ss, err := newSession(meta, sh.store)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_spec", err.Error())
		return
	}
	if s.poisoned.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "store_failed", "durable store failed; server is read-only")
		return
	}
	payload, err := json.Marshal(meta)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_spec", err.Error())
		return
	}
	if err := sh.store.Append(studystore.Record{Study: req.Study, ID: metaID, Payload: payload}); err != nil {
		s.writeSessionError(w, &storeFailure{err})
		return
	}
	sh.mu.Lock()
	sh.sessions[req.Study] = ss
	sh.mu.Unlock()
	s.nstudies.Add(1)
	s.m.creates.Add(1)
	s.writeJSON(w, http.StatusCreated, createResponse{
		Study: req.Study, Optimizer: meta.Optimizer, Created: true,
	})
}

// sameSpec compares descriptors by canonical JSON (the structs contain no
// maps, so marshaling is deterministic).
func sameSpec(a, b studyMeta) bool {
	aj, aerr := json.Marshal(a)
	bj, berr := json.Marshal(b)
	return aerr == nil && berr == nil && bytes.Equal(aj, bj)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	infos := make([]StudyInfo, 0, s.nstudies.Load())
	for _, sh := range s.shards {
		sh.mu.RLock()
		names := make([]string, 0, len(sh.sessions))
		for name := range sh.sessions {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			infos = append(infos, sh.sessions[name].info())
		}
		sh.mu.RUnlock()
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Study < infos[j].Study })
	s.writeJSON(w, http.StatusOK, listResponse{Studies: infos})
}

func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	study := r.PathValue("study")
	sh := s.enter(w, study)
	if sh == nil {
		return
	}
	defer sh.drainMu.RUnlock()
	ss := sh.session(study)
	if ss == nil {
		s.writeError(w, http.StatusNotFound, "not_found", "no such study")
		return
	}
	if !s.adm.tryAcquire() {
		s.m.shed.Add(1)
		s.writeError(w, http.StatusTooManyRequests, "overloaded", "suggest queue full; retry after backoff")
		return
	}
	defer s.adm.release()
	if s.testGate != nil {
		select {
		case <-s.testGate:
		case <-r.Context().Done():
		}
	}
	var req suggestRequest
	if !s.decode(w, r, &req) {
		return
	}
	n := req.Count
	if n <= 0 {
		n = 1
	}
	if n > s.opts.MaxSuggestBatch {
		n = s.opts.MaxSuggestBatch
	}
	trials, exhausted, err := ss.suggest(r.Context(), n)
	if err != nil {
		s.writeSessionError(w, err)
		return
	}
	s.m.suggests.Add(int64(len(trials)))
	resp := suggestResponse{Study: study, Trials: trials, Exhausted: exhausted}
	s.respond(w, http.StatusOK, func(dst []byte) ([]byte, error) { return appendSuggestResponse(dst, resp) })
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	study := r.PathValue("study")
	sh := s.enter(w, study)
	if sh == nil {
		return
	}
	defer sh.drainMu.RUnlock()
	ss := sh.session(study)
	if ss == nil {
		s.writeError(w, http.StatusNotFound, "not_found", "no such study")
		return
	}
	if s.poisoned.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "store_failed", "durable store failed; server is read-only")
		return
	}
	var req observeRequest
	if !s.decode(w, r, &req) {
		return
	}
	obs := req.Observations
	if len(obs) == 0 {
		if req.Config == nil {
			s.writeError(w, http.StatusBadRequest, "bad_request", "no observation in body")
			return
		}
		obs = []Observation{req.Observation}
	}
	if len(obs) > s.opts.MaxObserveBatch {
		s.writeError(w, http.StatusBadRequest, "batch_too_large", "observe batch exceeds limit")
		return
	}
	acked, dups, err := ss.observe(r.Context(), obs)
	s.m.observes.Add(int64(acked))
	s.m.duplicates.Add(int64(dups))
	if err != nil {
		s.writeSessionError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, observeResponse{Study: study, Acked: acked, Duplicates: dups})
}

func (s *Server) handleBest(w http.ResponseWriter, r *http.Request) {
	ss := s.session(r.PathValue("study"))
	if ss == nil {
		s.writeError(w, http.StatusNotFound, "not_found", "no such study")
		return
	}
	res, err := ss.best(r.Context())
	if err != nil {
		s.writeSessionError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, res)
}

func (s *Server) handlePareto(w http.ResponseWriter, r *http.Request) {
	ss := s.session(r.PathValue("study"))
	if ss == nil {
		s.writeError(w, http.StatusNotFound, "not_found", "no such study")
		return
	}
	objectives := []string{"value", "cost_seconds"}
	if q := r.URL.Query().Get("objectives"); q != "" {
		objectives = strings.Split(q, ",")
	}
	res, err := ss.pareto(r.Context(), objectives)
	if err != nil {
		s.writeSessionError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, res)
}

// trialsResponse is the GET /v1/studies/{study}/trials body.
type trialsResponse struct {
	Study  string              `json:"study"`
	Trials []trial.TrialRecord `json:"trials"`
}

func (s *Server) handleTrials(w http.ResponseWriter, r *http.Request) {
	study := r.PathValue("study")
	ss := s.session(study)
	if ss == nil {
		s.writeError(w, http.StatusNotFound, "not_found", "no such study")
		return
	}
	trs, err := ss.trials(r.Context())
	if err != nil {
		s.writeSessionError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, trialsResponse{Study: study, Trials: trs})
}

// handleHealthz is liveness: the process is up and serving, even while
// draining or degraded — restarts are for the orchestrator to decide on
// other evidence.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is routability: it fails before the hard limit starts
// bouncing (high-water mark), during drain, and when the store has
// degraded the server to read-only.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		s.writeError(w, http.StatusServiceUnavailable, "draining", "server is draining")
	case s.poisoned.Load():
		s.writeError(w, http.StatusServiceUnavailable, "store_failed", "durable store failed")
	case !s.adm.ready():
		s.writeError(w, http.StatusServiceUnavailable, "overloaded", "suggest queue past high-water mark")
	default:
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}
