package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"leakpruning/internal/obs"
)

// Handler returns the daemon's HTTP surface:
//
//	GET    /healthz                  liveness (200 while the process serves)
//	GET    /readyz                   readiness (503 once draining)
//	GET    /metrics                  obs.Handler (Prometheus text or JSON)
//	GET    /tenants                  tenant status table
//	POST   /tenants                  admit a tenant (TenantConfig body)
//	GET    /tenants/{name}           one tenant's status
//	DELETE /tenants/{name}           evict a tenant
//	POST   /tenants/{name}/run       run a request (?iters=N)
//	POST   /tenants/{name}/config    rolling config update (TenantConfig body)
//	GET    /pressure                 last probe level + budget numbers
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", obs.Handler(s.obs))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
	})
	mux.HandleFunc("GET /pressure", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"level":          s.PressureLevel(),
			"budget_bytes":   s.Budget(),
			"resident_bytes": uint64(s.gResident.Load()),
			// Worst-case pause per cycle mode across all tenants: the
			// operator's check that concurrent SELECT/PRUNE pauses stay in
			// the microsecond range.
			"max_pause_ns_by_mode": s.MaxPausesByMode(),
			// Request-latency SLOs keyed by ladder level: the same budget
			// pressure, measured in user-visible tail latency.
			"request_latency_by_level": s.LatencySLOs(),
		})
	})
	mux.HandleFunc("GET /tenants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Tenants())
	})
	mux.HandleFunc("POST /tenants", func(w http.ResponseWriter, r *http.Request) {
		var tc TenantConfig
		if !decodeBody(w, r, &tc) {
			return
		}
		t, err := s.Admit(tc)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusCreated, t.status())
	})
	mux.HandleFunc("GET /tenants/{name}", func(w http.ResponseWriter, r *http.Request) {
		t := s.tenant(r.PathValue("name"))
		if t == nil {
			writeError(w, http.StatusNotFound, &UnknownTenantError{Tenant: r.PathValue("name")})
			return
		}
		writeJSON(w, http.StatusOK, t.status())
	})
	mux.HandleFunc("DELETE /tenants/{name}", func(w http.ResponseWriter, r *http.Request) {
		findings, err := s.EvictTenant(r.PathValue("name"), "operator request")
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"evicted": r.PathValue("name"), "audit_findings": len(findings)})
	})
	mux.HandleFunc("POST /tenants/{name}/run", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		iters := 1
		if q := r.URL.Query().Get("iters"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil {
				verr := &RequestValidationError{Tenant: name, Detail: "iters must be an integer, got " + strconv.Quote(q)}
				writeError(w, statusFor(verr), verr)
				return
			}
			// Range validation happens in RunRequest so every entry point
			// (HTTP, in-process callers, tests) shares one contract.
			iters = n
		}
		done, err := s.RunRequest(name, iters)
		if err != nil {
			// Tenant-isolated failures are 200s with an error body: the
			// DAEMON handled the request fine; the TENANT faulted. Routing
			// failures (unknown, draining, unavailable) are real HTTP errors.
			switch err.(type) {
			case *RequestPanicError, *WatchdogTimeoutError, *RequestCancelledError:
				writeJSON(w, http.StatusOK, map[string]any{
					"tenant": name, "iterations": done, "error": err.Error(),
				})
			default:
				writeError(w, statusFor(err), err)
			}
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"tenant": name, "iterations": done})
	})
	mux.HandleFunc("POST /tenants/{name}/config", func(w http.ResponseWriter, r *http.Request) {
		var tc TenantConfig
		if !decodeBody(w, r, &tc) {
			return
		}
		name := r.PathValue("name")
		if err := s.UpdateTenant(name, tc); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		t := s.tenant(name)
		if t == nil { // evicted since the update landed
			writeError(w, http.StatusNotFound, &UnknownTenantError{Tenant: name})
			return
		}
		writeJSON(w, http.StatusOK, t.status())
	})
	return mux
}

// maxBodyBytes caps a TenantConfig request body, which is a few hundred
// bytes in practice.
const maxBodyBytes = 64 << 10

// decodeBody decodes a request body that must be exactly one JSON object
// with known keys, at most maxBodyBytes long: a misspelt key would
// otherwise be dropped silently (a "polcy" admits a tenant with pruning
// off). On failure it writes the 400 — 413 past the cap — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if err = dec.Decode(&json.RawMessage{}); err == io.EOF {
			return true
		} else if err == nil {
			err = errors.New("request body holds more than one JSON value")
		}
	}
	status := http.StatusBadRequest
	if errors.As(err, new(*http.MaxBytesError)) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, err)
	return false
}

// statusFor maps the package's typed errors onto HTTP statuses.
func statusFor(err error) int {
	var ae *AdmissionError
	if errors.As(err, &ae) {
		switch ae.Reason {
		case "invalid-config":
			return http.StatusBadRequest
		case "duplicate-name":
			return http.StatusConflict
		case "draining", "budget-pressure":
			return http.StatusServiceUnavailable
		default: // budget-exceeded, overcommit-exceeded
			return http.StatusInsufficientStorage
		}
	}
	var ve *RequestValidationError
	if errors.As(err, &ve) {
		return http.StatusBadRequest
	}
	var qf *QueueFullError
	if errors.As(err, &qf) {
		return http.StatusTooManyRequests
	}
	var ue *UnknownTenantError
	if errors.As(err, &ue) {
		return http.StatusNotFound
	}
	var tu *TenantUnavailableError
	if errors.As(err, &tu) {
		return http.StatusConflict
	}
	var wt *WatchdogTimeoutError
	if errors.As(err, &wt) {
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
