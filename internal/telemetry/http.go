package telemetry

import (
	"fmt"
	"net/http"
	"runtime/debug"
	"sort"
	"time"
)

// processStart anchors the uptime reported by /healthz.
var processStart = time.Now()

// buildInfo is the /healthz identification block, resolved once from the
// binary's embedded build metadata.
type buildInfo struct {
	GoVersion string `json:"go_version"`
	Module    string `json:"module,omitempty"`
	Version   string `json:"version,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
	Modified  bool   `json:"vcs_modified,omitempty"`
}

func readBuildInfo() buildInfo {
	var b buildInfo
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	b.GoVersion = bi.GoVersion
	b.Module = bi.Main.Path
	b.Version = bi.Main.Version
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			b.Revision = s.Value
		case "vcs.modified":
			b.Modified = s.Value == "true"
		}
	}
	return b
}

// ServeJSON answers with doc as an indented JSON document, the form every
// JSON endpoint of the stack serves. The document is encoded before any
// header is written, so a document that cannot be encoded (a NaN, say)
// answers 500 with the error instead of a truncated body.
func ServeJSON(w http.ResponseWriter, status int, doc any) {
	data, err := marshalJSON(doc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(data)
}

// JSONHandler serves the document doc builds on every GET or HEAD request
// through ServeJSON, and answers any other method 405.
func JSONHandler(doc func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		ServeJSON(w, http.StatusOK, doc())
	})
}

// HTTPOptions configures NewHTTPHandler.
type HTTPOptions struct {
	// Spans backs /spans.json; nil reports an empty ring.
	Spans *SpanLog
	// Extra mounts additional pattern → handler pairs on the same mux
	// (e.g. /events.json, /incidents.json, /slo.json, /prof.json). A
	// pattern that collides with a built-in endpoint panics at
	// construction; extras mount in sorted pattern order.
	Extra map[string]http.Handler
	// Health, when non-nil, supplies the /healthz judgment: a status string
	// ("ok", "degraded", ...) and whether the process can serve. When not
	// ready, /healthz?ready=1 answers 503 so probes can gate on capacity
	// rather than mere liveness; the plain /healthz stays 200 (the process
	// is alive) but reports the degraded status honestly.
	Health func() (status string, ready bool)
}

// NewHTTPHandler returns the metrics endpoint served by cmd/csddetect's and
// cmd/csdload's -metrics-addr flag:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  JSON snapshot of the registry
//	/spans.json    the SpanLog ring: recent per-request records, both clocks
//	/healthz       liveness probe: status, build identification (module,
//	               version, go version, VCS revision), and process uptime
//
// plus the opts.Extra mounts. Every scrape of /metrics or /metrics.json
// also refreshes the baseline Go runtime series through ReadRuntime, so
// runtime health is visible even with no other instrumentation wired. The
// handler is safe for concurrent use alongside live instrumentation — that
// is the point of it.
func NewHTTPHandler(r *Registry, opts HTTPOptions) http.Handler {
	spans := opts.Spans
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		ReadRuntime(r, nil)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		ReadRuntime(r, nil)
		ServeJSON(w, http.StatusOK, r.jsonDoc())
	})
	mux.HandleFunc("/spans.json", func(w http.ResponseWriter, _ *http.Request) {
		snap := spans.Snapshot()
		if snap == nil {
			snap = []Span{}
		}
		ServeJSON(w, http.StatusOK, struct {
			Total    int64  `json:"total"`
			Retained int    `json:"retained"`
			Spans    []Span `json:"spans"`
		}{Total: spans.Total(), Retained: len(snap), Spans: snap})
	})
	build := readBuildInfo()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		status, ready, code := "ok", true, http.StatusOK
		if opts.Health != nil {
			status, ready = opts.Health()
		}
		if !ready && req.URL.Query().Get("ready") != "" {
			code = http.StatusServiceUnavailable
		}
		ServeJSON(w, code, struct {
			Status        string    `json:"status"`
			Ready         bool      `json:"ready"`
			Build         buildInfo `json:"build"`
			UptimeSeconds float64   `json:"uptime_seconds"`
		}{Status: status, Ready: ready, Build: build, UptimeSeconds: time.Since(processStart).Seconds()})
	})
	// Extra mounts are validated against the built-in endpoints and mounted
	// in sorted order: a collision is a wiring bug that would otherwise
	// surface as a mux panic (or, worse, silent shadowing on an older mux)
	// far from the misconfigured call site, and map iteration order must not
	// decide which handler wins.
	builtin := map[string]bool{
		"/metrics": true, "/metrics.json": true, "/spans.json": true, "/healthz": true,
	}
	patterns := make([]string, 0, len(opts.Extra))
	for pattern := range opts.Extra {
		if builtin[pattern] {
			panic(fmt.Sprintf("telemetry: extra handler pattern %q collides with a built-in endpoint (/metrics, /metrics.json, /spans.json, /healthz)", pattern))
		}
		patterns = append(patterns, pattern)
	}
	sort.Strings(patterns)
	for _, pattern := range patterns {
		mux.Handle(pattern, opts.Extra[pattern])
	}
	return mux
}
