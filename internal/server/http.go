package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"grape/internal/metrics"
	"grape/internal/trace"
)

// Handler returns the server's HTTP/JSON API:
//
//	POST /query   QueryRequest  -> QueryResponse
//	POST /update  MutateRequest -> MutateResponse
//	GET  /graphs  -> []GraphInfo
//	GET  /stats   -> metrics.ServingSnapshot
//	GET  /healthz -> Health (liveness + resident graph count; readiness probe)
//	GET  /metrics -> Prometheus text exposition (see metrics.WritePrometheus)
//	GET  /debug/runs      -> flight-recorder index: retained run summaries + events
//	GET  /debug/runs/{id} -> one run's trace as Chrome trace-event JSON
//	                         (load it in Perfetto / chrome://tracing)
//
// Errors come back as {"error": "..."} with 400 (bad query), 404 (unknown
// graph/program), 429 (admission queue full), 504 (deadline exceeded or
// client gone — the engine run is cancelled with the request unless
// Config.DetachRuns) or 500 (run failure).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		var req QueryRequest
		if err := decodeBody(r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		resp, err := s.Query(r.Context(), req)
		if err != nil {
			writeErr(w, statusOf(err), err)
			return
		}
		// The answer encodes itself from pre-encoded parts; going through
		// json.Encoder would re-scan the result bytes to compact them.
		body, err := resp.MarshalJSON()
		if err != nil {
			writeErr(w, http.StatusInternalServerError, fmt.Errorf("server: encoding the answer: %w", err))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(body, '\n')) // a failed write means the client is gone
	})
	mux.HandleFunc("POST /update", func(w http.ResponseWriter, r *http.Request) {
		var req MutateRequest
		if err := decodeBody(r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		resp, err := s.Mutate(r.Context(), req.Graph, req.Program, req.Query, req.Edges)
		if err != nil {
			writeErr(w, statusOf(err), err)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("GET /graphs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Graphs())
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Health())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", metrics.PromContentType)
		s.WriteMetrics(w)
	})
	mux.HandleFunc("GET /debug/runs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, FlightIndex{Runs: s.flight.Runs(), Events: s.flight.Events()})
	})
	mux.HandleFunc("GET /debug/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		run, ok := s.flight.Get(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("%w: no retained run %q (the flight ring evicts old traces)", ErrNotFound, r.PathValue("id")))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		trace.WriteChrome(w, run)
	})
	return mux
}

func decodeBody(r *http.Request, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrBadQuery):
		return http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		// headers are gone; nothing useful left to do
		return
	}
}

func writeErr(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
