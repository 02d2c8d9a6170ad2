package simrankd

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"oipsr/graph"
	"oipsr/simrank/query"
)

type edgeEdit struct {
	Op string `json:"op"` // "add" | "remove"
	U  int    `json:"u"`
	V  int    `json:"v"`
}

type edgesRequest struct {
	Edits []edgeEdit `json:"edits"`
}

type edgesResponse struct {
	// Added/Removed count effective changes; no-op edits are accepted and
	// simply don't contribute.
	Added   int `json:"added"`
	Removed int `json:"removed"`
	// DirtyVertices and WalksRepaired describe the incremental repair.
	DirtyVertices int    `json:"dirty_vertices"`
	WalksRepaired int    `json:"walks_repaired"`
	Generation    uint64 `json:"generation"`
	Edges         int    `json:"edges"` // graph edge count after the batch
	UpdateMicros  int64  `json:"update_micros"`
}

// parseEdits translates wire edits to graph edits, returning a non-empty
// message on the first invalid op.
func parseEdits(wire []edgeEdit) ([]graph.Edit, string) {
	edits := make([]graph.Edit, len(wire))
	for i, e := range wire {
		switch e.Op {
		case "add":
			edits[i] = graph.Edit{Op: graph.EditAdd, U: e.U, V: e.V}
		case "remove":
			edits[i] = graph.Edit{Op: graph.EditRemove, U: e.U, V: e.V}
		default:
			return nil, fmt.Sprintf("edit %d: unknown op %q (want \"add\" or \"remove\")", i, e.Op)
		}
	}
	return edits, ""
}

// statusError is an error that names the HTTP status it is answered with:
// a backend's non-200 carried back through a scatter leg (so a
// deterministic 400 can be propagated verbatim while 429/5xx degrade), or
// an edit broadcast that reached only part of a fleet.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// handleEdges serves POST /v1/edges in every mode: a batch of edge
// adds/removes applied through apply under the write lock — an in-place,
// bit-identical repair of the walk rows this process holds
// (applyLocalEdits: serve and shard mode), or validate-locally-then-
// broadcast (a fleet). The repair is not cancellable (aborting a
// half-applied one would corrupt the index), so the request deadline gates
// only admission. apply fills everything of the response but UpdateMicros.
func (sv *serving) handleEdges(apply func(context.Context, []graph.Edit) (edgesResponse, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sv.reqEdges.Add(1)
		if !sv.checkMethod(w, r, http.MethodPost) {
			return
		}
		var req edgesRequest
		if !sv.decodeJSONBody(w, r, &req) {
			return
		}
		edits, errMsg := parseEdits(req.Edits)
		if errMsg != "" {
			sv.writeError(w, http.StatusBadRequest, "%s", errMsg)
			return
		}

		sv.mu.Lock()
		defer sv.mu.Unlock()
		u0 := time.Now()
		resp, err := apply(r.Context(), edits)
		if err != nil {
			// Invalid edits are the client's fault; an index beyond the
			// incremental-maintenance capacity is ours, and so is an index
			// file the applied batch could not be made durable beside; a
			// statusError speaks for itself.
			code := http.StatusBadRequest
			var se *statusError
			if errors.Is(err, query.ErrTooLarge) || errors.Is(err, query.ErrWriteBack) {
				code = http.StatusInternalServerError
			} else if errors.As(err, &se) {
				code = se.status
			}
			sv.writeError(w, code, "%v", err)
			return
		}
		resp.UpdateMicros = time.Since(u0).Microseconds()
		sv.updatesTotal.Add(1)
		sv.updateMicros.Add(resp.UpdateMicros)
		sv.edgesAdded.Add(int64(resp.Added))
		sv.edgesRemoved.Add(int64(resp.Removed))
		sv.walksRepaired.Add(int64(resp.WalksRepaired))

		body, err := sv.marshalBody(resp)
		if err != nil {
			sv.writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
			return
		}
		writeJSONBytes(w, body)
	}
}

// applyLocalEdits applies a batch in place to the walk rows this process
// holds — the full range in serve mode, one range of a fleet in shard mode:
// the same incremental repair either way.
func applyLocalEdits(idx *query.Index, edits []graph.Edit, workers int) (edgesResponse, error) {
	stats, err := idx.ApplyEdits(edits, workers)
	if err != nil {
		return edgesResponse{}, err
	}
	return edgesResponse{
		Added:         stats.EdgesAdded,
		Removed:       stats.EdgesRemoved,
		DirtyVertices: stats.DirtyVertices,
		WalksRepaired: stats.WalksRepaired,
		Generation:    stats.Generation,
		Edges:         idx.Graph().NumEdges(),
	}, nil
}
