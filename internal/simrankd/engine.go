package simrankd

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"oipsr/internal/sparserow"
	"oipsr/simrank/query"
)

// The engine seam: /v1/single_source and /v1/topk accept ?engine= to pick
// which of the two query families answers them.
//
//   - walk (the default, and the only value every release before the seam
//     understood): the persistent walk index's estimates, optionally
//     exactly reranked. This path is byte-for-byte the pre-seam behavior.
//   - linearized: row q of the converged SimRank matrix, solved on demand
//     through the linearized-system engine (oipsr/internal/linsr) — exact
//     to query.ExactTol, deterministic, and independent of the index seed.
//
// The engine choice is folded into the response-cache key (distinct "lss"/
// "etopk" key families, see server.go), an unknown value is a 400 before
// any work happens, and a linearized request whose remaining deadline
// cannot afford the exact solve degrades to the walk estimates by the same
// cost-model rules as rerank starvation (see degrade.go). /v1/batch and
// /v1/join are walk-only and reject an explicit non-walk engine.

// engineWalk and engineLinearized are the values of the ?engine= query
// parameter.
const (
	engineWalk       = "walk"
	engineLinearized = "linearized"
)

// engineParam resolves ?engine= from the URL query alone (FormValue would
// also consume a POST form body, and /v1/batch bodies must reach the JSON
// decoder untouched). Absent means walk.
func engineParam(r *http.Request) (string, error) {
	switch eng := r.URL.Query().Get("engine"); eng {
	case "", engineWalk:
		return engineWalk, nil
	case engineLinearized:
		return engineLinearized, nil
	default:
		return "", fmt.Errorf("unknown engine %q (want \"walk\" or \"linearized\")", eng)
	}
}

// countEngine records one engine-selecting request for /metrics.
func (sv *serving) countEngine(eng string) {
	if eng == engineLinearized {
		sv.engineLinTotal.Add(1)
	} else {
		sv.engineWalkTotal.Add(1)
	}
}

// requireWalkEngine rejects an explicit non-walk ?engine= on the endpoints
// that only serve walk estimates (/v1/batch, /v1/join). Returns false
// after answering the request.
func (sv *serving) requireWalkEngine(w http.ResponseWriter, r *http.Request) bool {
	eng, err := engineParam(r)
	if err != nil {
		sv.writeError(w, http.StatusBadRequest, "%v", err)
		return false
	}
	if eng != engineWalk {
		sv.writeError(w, http.StatusBadRequest, "engine %q is not supported on %s (walk only)", eng, r.URL.Path)
		return false
	}
	return true
}

// exactOrWalkRow is the row behind an engine=linearized request: row q of
// the converged SimRank matrix from the source's linearized solver, or —
// when the remaining deadline cannot afford the solve — the walk estimates,
// marked degraded. Callers hold mu.RLock and pass a scorePool row.
func (s *Server) exactOrWalkRow(ctx context.Context, q int, buf []float64) (row []float64, degraded bool, err error) {
	if s.shouldDegradeExact(ctx) {
		// A range missing from the estimates changes nothing here: the
		// answer is marked degraded and kept out of the cache either way.
		walk, _, err := s.walkRow(ctx, q)
		if err != nil {
			return nil, false, err
		}
		defer sparserow.Release(walk)
		walk.Densify(buf)
		return buf, true, nil
	}
	t1 := time.Now()
	row, steady, err := s.src.exactRow(ctx, q, buf)
	if err == nil && steady {
		// A call that also paid the one-time diagonal solve stays out of
		// the per-query cost model.
		s.observeExact(time.Since(t1))
	}
	return row, false, err
}

// serveSingleSourceExact answers /v1/single_source?engine=linearized.
// Callers hold mu.RLock.
func (s *Server) serveSingleSourceExact(w http.ResponseWriter, r *http.Request, q int, sparse bool, minVal float64) {
	// The same caching policy as the walk path: dense rows are O(n) bytes
	// and stay out of the LRU, only the thresholded form is memoized.
	var key string
	if sparse {
		key = lssCacheKey(s.src.genTag(), q, minVal)
		if s.cached(w, key) {
			return
		}
	}
	buf := s.scorePool.Get().(*[]float64)
	defer s.scorePool.Put(buf)
	row, degraded, err := s.exactOrWalkRow(r.Context(), q, *buf)
	if err != nil {
		s.writeQueryError(w, err, http.StatusBadRequest)
		return
	}
	body, err := s.singleSourceBody(q, row, sparse, minVal, degraded)
	s.writeBody(w, key, degraded, body, err)
}

// serveTopKExact answers /v1/topk?engine=linearized: the exact row ranked
// without any rerank step (the scores are already exact). Callers hold
// mu.RLock.
func (s *Server) serveTopKExact(w http.ResponseWriter, r *http.Request, q, k int) {
	key := etopkCacheKey(s.src.genTag(), q, k)
	if s.cached(w, key) {
		return
	}
	buf := s.scorePool.Get().(*[]float64)
	defer s.scorePool.Put(buf)
	row, degraded, err := s.exactOrWalkRow(r.Context(), q, *buf)
	if err != nil {
		s.writeQueryError(w, err, http.StatusBadRequest)
		return
	}
	results, err := query.RankScores(r.Context(), nil, s.c, s.horizon, row, q, min(k, s.n-1), nil)
	if err != nil {
		s.writeQueryError(w, err, http.StatusBadRequest)
		return
	}
	body, err := s.topKBody(q, k, false, degraded, results)
	s.writeBody(w, key, degraded, body, err)
}
