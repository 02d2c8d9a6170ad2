package simrankd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"oipsr/graph"
	"oipsr/internal/sparserow"
	"oipsr/simrank/query"
	"oipsr/simrank/shard"
)

// ShardServer is the HTTP handler of one shard backend: it owns the walk
// rows of a contiguous vertex range and answers the internal scatter
// protocol a router (fleetSource) speaks — sparse partial score rows for
// arbitrary sources, join candidate enumeration over a fingerprint range,
// exact pair scoring — plus /v1/edges (the one handler every mode shares, see edges.go),
// /healthz, and /metrics. It inherits the full overload discipline
// (deadline attachment, admission control, shedding) through the embedded
// serving.
//
// Internal endpoints (consumed by a router, not public API):
//
//	POST /shard/v1/scores           partial rows for the owned range
//	POST /shard/v1/join_candidates  co-located pairs of one fp range
//	POST /shard/v1/join_score       exact scores for candidate pairs
//
// Every response echoes the shard's update generation, so the router can
// detect a backend that was updated behind its back and refuse to cache
// the merge.
type ShardServer struct {
	serving

	idx     *query.Index // owns [Lo, Hi)
	workers int
	mux     *http.ServeMux

	reqScores   atomic.Int64
	reqJoinCand atomic.Int64
	reqJoinPair atomic.Int64

	// scoresEntries counts the non-zero entries sent in score legs.
	scoresEntries atomic.Int64
}

// NewShardServer returns a handler serving the scatter protocol from sh's
// index, which must have its source graph attached (foreign sources are
// recomputed from it).
func NewShardServer(sh *shard.Shard, cfg Config) (*ShardServer, error) {
	if sh.Graph() == nil {
		return nil, fmt.Errorf("simrankd: shard server needs the source graph (AttachGraph after load)")
	}
	s := &ShardServer{
		idx:     sh.Index,
		workers: cfg.Workers,
		mux:     http.NewServeMux(),
	}
	s.initServing(cfg)
	s.mux.HandleFunc("/shard/v1/scores", s.limited(s.handleScores))
	s.mux.HandleFunc("/shard/v1/join_candidates", s.limited(s.handleJoinCandidates))
	s.mux.HandleFunc("/shard/v1/join_score", s.limited(s.handleJoinScore))
	// The same request and response shapes as serve mode, applied to the
	// shard's graph and range-restricted index. A router broadcasts one
	// batch to every shard; because edits are idempotent at the graph
	// layer, re-broadcasting after a partial failure converges instead of
	// corrupting.
	s.mux.HandleFunc("/v1/edges", s.limited(s.handleEdges(func(_ context.Context, edits []graph.Edit) (edgesResponse, error) {
		return applyLocalEdits(s.idx, edits, cfg.Workers)
	})))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics("shard", s.writeMetrics))
	return s, nil
}

func (s *ShardServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

type shardScoresRequest struct {
	Sources []int `json:"sources"`
}

// handleScores serves POST /shard/v1/scores: the shard's partial rows for a
// batch of sources (owned or foreign), each as the sorted non-zero entries
// of the owned range — the run of the single-node sparse row that falls in
// it, scores bit for bit. The request is JSON; the response is the binary
// leg of legwire.go with Content-Length set.
func (s *ShardServer) handleScores(w http.ResponseWriter, r *http.Request) {
	s.reqScores.Add(1)
	if !s.checkMethod(w, r, http.MethodPost) {
		return
	}
	var req shardScoresRequest
	if !s.decodeJSONBody(w, r, &req) {
		return
	}
	if len(req.Sources) > s.maxBatch {
		s.writeError(w, http.StatusBadRequest, "batch of %d sources exceeds the %d limit", len(req.Sources), s.maxBatch)
		return
	}
	// The same row bound the single-node batch enforces, against this
	// shard's row width: a row may hold a score for every owned vertex.
	if width := s.idx.Hi() - s.idx.Lo(); int64(len(req.Sources))*int64(max(width, 1)) > maxDenseBatchScores {
		s.writeError(w, http.StatusBadRequest,
			"%d sources on a %d-vertex shard exceed %d total scores; split the batch",
			len(req.Sources), width, maxDenseBatchScores)
		return
	}

	s.mu.RLock()
	defer s.mu.RUnlock()
	rows, err := s.idx.SparseRows(r.Context(), req.Sources, s.workers)
	if err != nil {
		s.writeQueryError(w, err, http.StatusBadRequest)
		return
	}
	defer sparserow.Release(rows...)
	buf := s.encPool.Get().(*bytes.Buffer)
	defer s.encPool.Put(buf)
	buf.Reset()
	body := appendLeg(buf.AvailableBuffer(), s.idx.Lo(), s.idx.Hi(), s.idx.Generation(), rows)
	buf.Write(body) // keeps the grown memory with the pooled buffer
	for _, row := range rows {
		s.scoresEntries.Add(int64(row.Len()))
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

type shardJoinCandRequest struct {
	Threshold     float64 `json:"threshold"`
	FpLo          int     `json:"fp_lo"`
	FpHi          int     `json:"fp_hi"`
	MaxCandidates int     `json:"max_candidates"`
}

type shardJoinCandResponse struct {
	Generation uint64 `json:"generation"`
	// Pairs are the candidate (a, b) vertex pairs, a < b, sorted — kept
	// as integer pairs on the wire because the packed a<<32|b key can
	// exceed exact float64 range in a JSON number.
	Pairs [][2]int `json:"pairs"`
}

// handleJoinCandidates serves POST /shard/v1/join_candidates: the
// co-located candidate pairs of one fingerprint range at a threshold.
func (s *ShardServer) handleJoinCandidates(w http.ResponseWriter, r *http.Request) {
	s.reqJoinCand.Add(1)
	if !s.checkMethod(w, r, http.MethodPost) {
		return
	}
	var req shardJoinCandRequest
	if !s.decodeJSONBody(w, r, &req) {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys, err := s.idx.JoinCandidates(r.Context(), req.Threshold, req.FpLo, req.FpHi, req.MaxCandidates, s.workers)
	if err != nil {
		s.writeQueryError(w, err, http.StatusBadRequest)
		return
	}
	pairs := make([][2]int, len(keys))
	for i, key := range keys {
		pairs[i] = [2]int{int(key >> 32), int(key & 0xFFFFFFFF)}
	}
	body, err := s.marshalBody(shardJoinCandResponse{Generation: s.idx.Generation(), Pairs: pairs})
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	writeJSONBytes(w, body)
}

type shardJoinScoreRequest struct {
	Pairs [][2]int `json:"pairs"`
}

type shardJoinScoreResponse struct {
	Generation uint64           `json:"generation"`
	Pairs      []query.JoinPair `json:"pairs"`
}

// handleJoinScore serves POST /shard/v1/join_score: exact index estimates
// for candidate pairs, bit-identical to single-node pair scores.
func (s *ShardServer) handleJoinScore(w http.ResponseWriter, r *http.Request) {
	s.reqJoinPair.Add(1)
	if !s.checkMethod(w, r, http.MethodPost) {
		return
	}
	var req shardJoinScoreRequest
	if !s.decodeJSONBody(w, r, &req) {
		return
	}
	keys := make([]uint64, len(req.Pairs))
	for i, p := range req.Pairs {
		if p[0] < 0 || p[1] < 0 {
			s.writeError(w, http.StatusBadRequest, "pair %d: negative vertex", i)
			return
		}
		keys[i] = uint64(p[0])<<32 | uint64(p[1])
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	pairs, err := s.idx.ScorePairs(r.Context(), keys, s.workers)
	if err != nil {
		s.writeQueryError(w, err, http.StatusBadRequest)
		return
	}
	body, err := s.marshalBody(shardJoinScoreResponse{Generation: s.idx.Generation(), Pairs: pairs})
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	writeJSONBytes(w, body)
}

// shardHealthzResponse is the shard-mode /healthz body; the router's
// startup probe consumes it to learn each backend's range, parameters,
// and generation.
type shardHealthzResponse struct {
	Status     string  `json:"status"`
	Vertices   int     `json:"vertices"`
	Lo         int     `json:"lo"`
	Hi         int     `json:"hi"`
	Walks      int     `json:"walks"`
	Horizon    int     `json:"horizon"`
	C          float64 `json:"c"`
	Seed       int64   `json:"seed"`
	IndexBytes int64   `json:"index_bytes"`
	// ForestBytes is the coalescence order the shard answers from,
	// derived state on top of IndexBytes.
	ForestBytes int64 `json:"index_forest_bytes"`
	// Backend is how the walk rows are kept: "dense" in memory only,
	// "write-back" when edit batches are also written to the shard file
	// (-index-mmap).
	Backend    string  `json:"backend"`
	Generation uint64  `json:"generation"`
	UptimeSecs float64 `json:"uptime_seconds"`
}

func (s *ShardServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(shardHealthzResponse{
		Status:      "ok",
		Vertices:    s.idx.N(),
		Lo:          s.idx.Lo(),
		Hi:          s.idx.Hi(),
		Walks:       s.idx.Walks(),
		Horizon:     s.idx.Horizon(),
		C:           s.idx.C(),
		Seed:        s.idx.Seed(),
		IndexBytes:  s.idx.Bytes(),
		ForestBytes: s.idx.ForestBytes(),
		Backend:     s.idx.Backend(),
		Generation:  s.idx.Generation(),
		UptimeSecs:  time.Since(s.started).Seconds(),
	})
}

// writeMetrics emits the shard server's own /metrics lines.
func (s *ShardServer) writeMetrics(w io.Writer) {
	fmt.Fprintf(w, "simrankd_requests_total{endpoint=\"shard_scores\"} %d\n", s.reqScores.Load())
	fmt.Fprintf(w, "simrankd_requests_total{endpoint=\"shard_join_candidates\"} %d\n", s.reqJoinCand.Load())
	fmt.Fprintf(w, "simrankd_requests_total{endpoint=\"shard_join_score\"} %d\n", s.reqJoinPair.Load())
	fmt.Fprintf(w, "simrankd_shard_scores_entries_total %d\n", s.scoresEntries.Load())
	s.mu.RLock()
	defer s.mu.RUnlock()
	fmt.Fprintf(w, "simrankd_index_generation %d\n", s.idx.Generation())
	fmt.Fprintf(w, "simrankd_shard_lo %d\n", s.idx.Lo())
	fmt.Fprintf(w, "simrankd_shard_hi %d\n", s.idx.Hi())
	writeIndexSizeMetrics(w, s.idx)
}
