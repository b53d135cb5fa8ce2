package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Server exposes a Registry over HTTP:
//
//	POST   /v1/jobs       submit a JobSpec, returns JobInfo (201)
//	GET    /v1/jobs       list all jobs
//	GET    /v1/jobs/{id}  one job's live status (and result when done)
//	DELETE /v1/jobs/{id}  cancel a job
//	GET    /metrics       Prometheus text-format telemetry
//	GET    /healthz       liveness probe
type Server struct {
	reg     *Registry
	mux     *http.ServeMux
	started time.Time
}

// New wires a Server around reg.
func New(reg *Registry) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux(), started: time.Now()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Handler returns the root http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// maxSpecBytes bounds a submitted spec; well-formed specs are tiny.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var spec JobSpec
	if err := DecodeSubmit(w, req, &spec); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad job spec: %w", err))
		return
	}
	info, err := s.reg.Submit(spec)
	if err != nil {
		WriteSubmitError(w, s.reg, err)
		return
	}
	WriteJSON(w, http.StatusCreated, info)
}

// DecodeSubmit decodes a submission body into v: at most maxSpecBytes,
// with unknown fields rejected.
func DecodeSubmit(w http.ResponseWriter, req *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// WriteSubmitError answers a submission reg refused with err.
func WriteSubmitError(w http.ResponseWriter, reg *Registry, err error) {
	switch {
	case errors.Is(err, ErrClosed), errors.Is(err, ErrNotDurable):
		WriteError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrMinority):
		// Minority partition: this node cannot safely accept work until
		// it rejoins the majority. The Retry-After hint reuses the
		// queue-drain derivation — clients back off the same way they do
		// for overload.
		w.Header().Set("Retry-After", strconv.Itoa(reg.RetryAfterSeconds()))
		WriteError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrQueueFull):
		// Load shedding: tell well-behaved clients when to come back,
		// derived from how deep the queue is and how fast it has been
		// draining rather than a fixed guess.
		w.Header().Set("Retry-After", strconv.Itoa(reg.RetryAfterSeconds()))
		WriteError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDuplicateID):
		WriteError(w, http.StatusConflict, err)
	default:
		WriteError(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleList(w http.ResponseWriter, req *http.Request) {
	views, err := s.reg.ListViews()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleGet(w http.ResponseWriter, req *http.Request) {
	view, err := s.reg.View(req.PathValue("id"))
	WriteView(w, view, err)
}

func (s *Server) handleCancel(w http.ResponseWriter, req *http.Request) {
	view, err := s.reg.CancelView(req.PathValue("id"))
	WriteView(w, view, err)
}

// WriteView answers with a job view from Registry.View or CancelView:
// 404 for an unknown job, 500 for a view that could not be encoded, and
// otherwise 200 with the view and a newline, the body WriteJSON writes
// for the decoded view.
func WriteView(w http.ResponseWriter, view []byte, err error) {
	switch {
	case errors.Is(err, ErrNotFound):
		WriteError(w, http.StatusNotFound, err)
	case err != nil:
		WriteError(w, http.StatusInternalServerError, err)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(view)+1))
		// Nothing useful to do with a failed write.
		if _, err := w.Write(view); err == nil {
			io.WriteString(w, "\n")
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteMetrics(w, s.reg)
}

func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	c := s.reg.Counters()
	body := map[string]any{
		"status":      "ok",
		"uptime_sec":  time.Since(s.started).Seconds(),
		"jobs":        s.reg.jobCount(),
		"queue_depth": s.reg.Depth(),
		"queue_limit": s.reg.MaxQueue(),
		"jobs_shed":   c.Shed,
	}
	if js, ok := s.reg.JournalStats(); ok {
		body["journal"] = map[string]any{
			"appends":  js.Appends,
			"syncs":    js.Syncs,
			"segments": s.reg.JournalSegments(),
			"errors":   c.JournalErrors,
		}
	}
	WriteJSON(w, http.StatusOK, body)
}

// WriteJSON answers with v as compact JSON, ended by a newline, and the
// given status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) // nothing useful to do with a failed write
}

// WriteError answers with {"error": err} and the given status code.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}
