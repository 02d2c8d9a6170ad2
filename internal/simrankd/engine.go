package simrankd

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"oipsr/internal/sparserow"
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
// "etopk" key families, see ask.key), an unknown value is a 400 before
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

// exactRows is the fetch behind engine=linearized: row q of the converged
// SimRank matrix for every source, from the source's linearized solver,
// each entering here as a row of its entries other than +0 — or, when the
// remaining deadline cannot afford the solves, the walk estimates, marked
// degraded. A range missing from those estimates changes nothing: the
// answer is marked degraded and kept out of the cache either way. The
// caller releases the rows and holds mu.RLock.
func (s *Server) exactRows(ctx context.Context, sources []int) (rows []*sparserow.Row, degraded bool, err error) {
	if s.shouldDegradeExact(ctx, len(sources)) {
		rows, _, err := s.src.rows(ctx, sources)
		return rows, err == nil, err
	}
	buf := s.scorePool.Get().(*[]float64)
	defer s.scorePool.Put(buf)
	rows = make([]*sparserow.Row, 0, len(sources))
	for _, q := range sources {
		t1 := time.Now()
		dense, steady, err := s.src.exactRow(ctx, q, *buf)
		if err != nil {
			sparserow.Release(rows...)
			return nil, false, err
		}
		if steady {
			// A call that also paid the one-time diagonal solve stays out of
			// the per-query cost model.
			s.observeExact(since(t1))
		}
		row := sparserow.Get()
		row.Sparsify(dense)
		rows = append(rows, row)
	}
	return rows, false, nil
}
