package simrankd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oipsr/internal/histogram"
	"oipsr/simrank/query"
)

// serving is the machinery every simrankd mode shares: the /v1 front end
// (Server, over either row source) and a shard backend (ShardServer) both
// embed it. It owns the query/update lock, the concurrency limiter and
// request deadlines (limiter.go), the deadline-aware degradation cost
// model (degrade.go), error/body encoding, the /v1/edges handler, and the
// counters and /metrics lines common to every mode.
type serving struct {
	// mu serializes /v1/edges against queries: queries hold RLock for their
	// whole execution (walk rows are repaired in place, not swapped; a
	// fleet's broadcast must not interleave with a scatter), handleEdges
	// holds Lock while the batch applies. Reads stay fully concurrent with
	// each other; the limiter bounds how many execute at once.
	mu sync.RWMutex

	maxBatch       int
	joinMaxCand    int
	maxInflight    int
	queueDepth     int
	requestTimeout time.Duration

	// sem is the execution-slot semaphore (capacity maxInflight); queued
	// counts requests waiting for a slot against queueDepth.
	sem      chan struct{}
	queued   atomic.Int64
	inflight atomic.Int64

	// encPool recycles JSON encode buffers.
	encPool sync.Pool

	// rerankNanosPerCand is the EWMA cost of exactly re-scoring one
	// rerank candidate, in nanoseconds — the cost model behind
	// deadline-aware degradation (see degrade.go).
	rerankNanosPerCand atomic.Uint64

	// exactNanos is the EWMA cost of one exact (linearized) single-source
	// solve, in nanoseconds — the degradation cost model behind
	// ?engine=linearized requests (see degrade.go).
	exactNanos atomic.Uint64

	// rerankSeconds is the wall time of every completed exact rerank (one
	// top-k request, or one chunk of a batch; the ranking alone, never the
	// sweep before it) — the observations the per-candidate EWMA is folded
	// from, kept as a distribution because the EWMA hides the hub-heavy
	// tail that deadlines actually meet.
	rerankSeconds *histogram.Histogram

	// Per-engine request counters for the endpoints that accept ?engine=
	// (/v1/single_source and /v1/topk), exported on /metrics as
	// simrankd_engine_requests_total{engine}.
	engineWalkTotal atomic.Int64
	engineLinTotal  atomic.Int64

	// Counters exported on /metrics. Latency is a histogram over every
	// /v1 request, including error, shed, and degraded paths.
	latency       *histogram.Histogram
	shedTotal     atomic.Int64
	degradedTotal atomic.Int64
	reqErrors     atomic.Int64

	// /v1/edges counters: requests, applied batches, and what they did.
	reqEdges      atomic.Int64
	updatesTotal  atomic.Int64
	updateMicros  atomic.Int64
	edgesAdded    atomic.Int64
	edgesRemoved  atomic.Int64
	walksRepaired atomic.Int64

	started time.Time

	// Test hooks. testHookInflight runs while the request holds an
	// execution slot (tests block here to saturate the limiter
	// deterministically); testHookBatchLine runs after each streamed
	// batch line (tests block here to cancel mid-stream).
	testHookInflight  func(*http.Request)
	testHookBatchLine func(line int)
}

// resolvedMaxInflight is MaxInflight with its default applied.
func (cfg Config) resolvedMaxInflight() int {
	if cfg.MaxInflight <= 0 {
		return DefaultMaxInflight()
	}
	return cfg.MaxInflight
}

// initServing resolves the limiter and request-shaping defaults of cfg
// and arms the semaphore. newFrontEnd and NewShardServer call it exactly
// once before wiring routes.
func (sv *serving) initServing(cfg Config) {
	sv.maxBatch = cfg.MaxBatch
	sv.joinMaxCand = cfg.JoinMaxCandidates
	sv.maxInflight = cfg.resolvedMaxInflight()
	sv.queueDepth = cfg.QueueDepth
	sv.requestTimeout = cfg.RequestTimeout
	if sv.maxBatch <= 0 {
		sv.maxBatch = DefaultMaxBatch
	}
	if sv.joinMaxCand <= 0 {
		sv.joinMaxCand = query.DefaultMaxCandidates
	}
	switch {
	case sv.queueDepth == 0:
		sv.queueDepth = 2 * sv.maxInflight
	case sv.queueDepth < 0:
		sv.queueDepth = 0
	}
	sv.sem = make(chan struct{}, sv.maxInflight)
	sv.latency = histogram.New(nil)
	sv.rerankSeconds = histogram.New(nil)
	sv.encPool.New = func() any { return new(bytes.Buffer) }
	sv.started = time.Now()
}

// marshalBody JSON-encodes v through a pooled buffer and returns a
// newline-terminated copy sized to the body (response bodies are retained
// — cached, streamed — so they cannot alias the pooled buffer; the pool
// still absorbs the encoder's grow-and-copy churn).
func (sv *serving) marshalBody(v any) ([]byte, error) {
	buf := sv.encPool.Get().(*bytes.Buffer)
	defer sv.encPool.Put(buf)
	buf.Reset()
	// Encode appends exactly the '\n' the NDJSON and single-response
	// bodies both end with.
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return nil, err
	}
	body := make([]byte, buf.Len())
	copy(body, buf.Bytes())
	return body, nil
}

type errorResponse struct {
	Error string `json:"error"`
}

func (sv *serving) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	sv.reqErrors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeQueryError maps a failed query to a status: an expired deadline or
// a cancelled request is the server's load problem (503 with Retry-After,
// the signal load balancers understand), anything else is the client's
// 400 — unless the caller says otherwise via fallback.
func (sv *serving) writeQueryError(w http.ResponseWriter, err error, fallback int) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", "1")
		sv.writeError(w, http.StatusServiceUnavailable, "deadline exceeded before the query completed; raise timeout_ms or retry")
	case errors.Is(err, context.Canceled):
		// The client went away or the server is draining; the write
		// usually goes nowhere, but the status should not blame the query.
		sv.writeError(w, http.StatusServiceUnavailable, "request cancelled")
	default:
		sv.writeError(w, fallback, "%v", err)
	}
}

// checkMethod enforces the endpoint's method set, answering 405 with an
// Allow header otherwise.
func (sv *serving) checkMethod(w http.ResponseWriter, r *http.Request, allowed ...string) bool {
	for _, m := range allowed {
		if r.Method == m {
			return true
		}
	}
	w.Header().Set("Allow", strings.Join(allowed, ", "))
	sv.writeError(w, http.StatusMethodNotAllowed, "method %s not allowed on %s", r.Method, r.URL.Path)
	return false
}

func writeJSONBytes(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// intParam parses a required (or defaulted) integer query parameter.
func intParam(r *http.Request, name string, def int, required bool) (int, error) {
	raw := r.FormValue(name)
	if raw == "" {
		if required {
			return 0, fmt.Errorf("missing required parameter %q", name)
		}
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	return v, nil
}

func boolParam(r *http.Request, name string) bool {
	switch r.FormValue(name) {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}

// topKBody marshals the /v1/topk response body — also the per-item line
// /v1/batch streams, so the two endpoints answer byte-identically.
func (sv *serving) topKBody(q, k int, rerank, degraded bool, results []query.Ranked) ([]byte, error) {
	return sv.marshalBody(topKResponse{Query: q, K: k, Reranked: rerank, Degraded: degraded, Results: results})
}

// handleMetrics serves /metrics in every mode, in the Prometheus text
// exposition format (no client library dependency): the lines all modes
// share, then extra's. The page is rendered into a buffer first, so
// whatever lock extra takes is never held across a slow scraper's reads.
func (sv *serving) handleMetrics(mode string, extra func(io.Writer)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		buf := sv.encPool.Get().(*bytes.Buffer)
		defer sv.encPool.Put(buf)
		buf.Reset()
		buildInfoMetric(buf, mode)
		fmt.Fprintf(buf, "simrankd_requests_total{endpoint=\"edges\"} %d\n", sv.reqEdges.Load())
		fmt.Fprintf(buf, "simrankd_request_errors_total %d\n", sv.reqErrors.Load())
		fmt.Fprintf(buf, "simrankd_requests_shed_total %d\n", sv.shedTotal.Load())
		fmt.Fprintf(buf, "simrankd_inflight_requests %d\n", sv.inflight.Load())
		fmt.Fprintf(buf, "simrankd_queued_requests %d\n", sv.queued.Load())
		sv.latency.WriteProm(buf, "simrankd_request_latency_seconds")
		fmt.Fprintf(buf, "simrankd_updates_total %d\n", sv.updatesTotal.Load())
		fmt.Fprintf(buf, "simrankd_update_latency_micros_total %d\n", sv.updateMicros.Load())
		fmt.Fprintf(buf, "simrankd_update_edges_added_total %d\n", sv.edgesAdded.Load())
		fmt.Fprintf(buf, "simrankd_update_edges_removed_total %d\n", sv.edgesRemoved.Load())
		fmt.Fprintf(buf, "simrankd_update_walks_repaired_total %d\n", sv.walksRepaired.Load())
		extra(buf)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		w.Write(buf.Bytes())
	}
}

// streamNDJSON writes precomputed NDJSON lines, flushing each. A context
// that dies mid-stream — the graceful-shutdown drain deadline cancelling
// in-flight requests, the per-request deadline, a vanished client — ends
// the stream with one terminal error line: the status is long since
// written, so in-band is the only channel left, and clients must not
// mistake a truncated stream for a complete one.
func (sv *serving) streamNDJSON(w http.ResponseWriter, r *http.Request, lines [][]byte) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	for i, line := range lines {
		if err := r.Context().Err(); err != nil {
			if term, merr := json.Marshal(batchTerminal{
				Error:     fmt.Sprintf("stream truncated after %d of %d lines: %v", i, len(lines), err),
				Truncated: true,
			}); merr == nil {
				w.Write(append(term, '\n'))
				if flusher != nil {
					flusher.Flush()
				}
			}
			return
		}
		if _, err := w.Write(line); err != nil {
			return // client went away; nothing sensible left to do
		}
		if flusher != nil {
			flusher.Flush()
		}
		if sv.testHookBatchLine != nil {
			sv.testHookBatchLine(i)
		}
	}
}
