package simrankd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"oipsr/graph/gen"
	"oipsr/simrank/query"
)

// ndjsonLines splits an NDJSON body into its lines, without the trailing
// newline of each.
func ndjsonLines(t *testing.T, body []byte) [][]byte {
	t.Helper()
	if len(body) == 0 {
		return nil
	}
	if body[len(body)-1] != '\n' {
		t.Fatalf("NDJSON body does not end in a newline: %q", body)
	}
	return bytes.Split(bytes.TrimSuffix(body, []byte{'\n'}), []byte{'\n'})
}

// TestBatchByteIdenticalToSingleEndpoints: every line /v1/batch streams
// must be byte-for-byte the response of the corresponding single-query
// endpoint — the guarantee that lets the two share cache entries.
func TestBatchByteIdenticalToSingleEndpoints(t *testing.T) {
	_, idx := testIndex(t)
	ts := httptest.NewServer(newServer(idx, 64, 2))
	defer ts.Close()

	sources := []int{3, 77, 3, 149}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"mode":"topk","sources":[3,77,3,149],"k":5,"rerank":true}`))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, buf.Bytes())
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("batch Content-Type %q, want application/x-ndjson", ct)
	}
	body := buf.Bytes()
	lines := ndjsonLines(t, body)
	if len(lines) != len(sources) {
		t.Fatalf("%d lines for %d sources", len(lines), len(sources))
	}
	for i, q := range sources {
		_, single := get(t, fmt.Sprintf("%s/v1/topk?q=%d&k=5&rerank=1", ts.URL, q))
		if !bytes.Equal(append(lines[i], '\n'), single) {
			t.Fatalf("batch line %d differs from /v1/topk for q=%d:\n%s\nvs\n%s", i, q, lines[i], single)
		}
	}

	var code int
	code, body = postJSON(t, ts.URL+"/v1/batch", `{"mode":"single_source","sources":[3,77],"min":0.01}`)
	if code != http.StatusOK {
		t.Fatalf("single_source batch status %d: %s", code, body)
	}
	lines = ndjsonLines(t, body)
	for i, q := range []int{3, 77} {
		_, single := get(t, fmt.Sprintf("%s/v1/single_source?q=%d&min=0.01", ts.URL, q))
		if !bytes.Equal(append(lines[i], '\n'), single) {
			t.Fatalf("batch ss line %d differs from /v1/single_source for q=%d", i, q)
		}
	}

	// Dense mode (no min) works too, just uncached.
	code, body = postJSON(t, ts.URL+"/v1/batch", `{"mode":"single_source","sources":[5]}`)
	if code != http.StatusOK {
		t.Fatalf("dense batch status %d: %s", code, body)
	}
	var dense singleSourceResponse
	if err := json.Unmarshal(ndjsonLines(t, body)[0], &dense); err != nil {
		t.Fatal(err)
	}
	if dense.Query != 5 || len(dense.Scores) != idx.N() {
		t.Fatalf("dense line: query %d, %d scores (n=%d)", dense.Query, len(dense.Scores), idx.N())
	}
}

// TestBatchPerItemErrorIsolation: invalid sources produce error lines in
// their positions; every valid source is still answered, and the request
// as a whole succeeds.
func TestBatchPerItemErrorIsolation(t *testing.T) {
	_, idx := testIndex(t)
	srv := newServer(idx, 64, 1)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body := postJSON(t, ts.URL+"/v1/batch", `{"mode":"topk","sources":[2,99999,-1,7],"k":3}`)
	if code != http.StatusOK {
		t.Fatalf("mixed batch status %d, want 200: %s", code, body)
	}
	lines := ndjsonLines(t, body)
	if len(lines) != 4 {
		t.Fatalf("%d lines, want 4", len(lines))
	}
	for _, i := range []int{0, 3} {
		var ok topKResponse
		if err := json.Unmarshal(lines[i], &ok); err != nil || len(ok.Results) != 3 {
			t.Fatalf("line %d not a valid topk response: %s", i, lines[i])
		}
	}
	for i, wantSrc := range map[int]int{1: 99999, 2: -1} {
		var fail batchItemError
		if err := json.Unmarshal(lines[i], &fail); err != nil || fail.Error == "" || fail.Source != wantSrc {
			t.Fatalf("line %d not an error line for source %d: %s", i, wantSrc, lines[i])
		}
	}
	if got := srv.batchItemErrors.Load(); got != 2 {
		t.Fatalf("batchItemErrors = %d, want 2", got)
	}

	// An all-invalid batch still succeeds at the request level.
	code, body = postJSON(t, ts.URL+"/v1/batch", `{"sources":[99999]}`)
	if code != http.StatusOK {
		t.Fatalf("all-invalid batch status %d, want 200: %s", code, body)
	}
}

// TestBatchCacheKeyCanonicalization: equivalent parameter spellings across
// /v1/batch and the single endpoints land on one cache entry, keyed by the
// index generation.
func TestBatchCacheKeyCanonicalization(t *testing.T) {
	_, idx := testIndex(t)
	srv := newServer(idx, 64, 1)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Batch fills the cache; the differently-spelled single queries and an
	// identical re-batch must all hit.
	postJSON(t, ts.URL+"/v1/batch", `{"mode":"single_source","sources":[4,9],"min":0.010}`)
	hits0, _ := srv.cache.Stats()
	get(t, ts.URL+"/v1/single_source?q=4&min=1e-2")
	get(t, ts.URL+"/v1/single_source?q=9&min=0.01")
	postJSON(t, ts.URL+"/v1/batch", `{"mode":"single_source","sources":[4,9],"min":1.0e-2}`)
	hits1, misses1 := srv.cache.Stats()
	if hits1-hits0 != 4 {
		t.Fatalf("canonicalized re-queries: %d hits, want 4 (misses %d)", hits1-hits0, misses1)
	}

	// Same across /v1/batch topk and /v1/topk.
	postJSON(t, ts.URL+"/v1/batch", `{"mode":"topk","sources":[11],"k":5}`)
	hits0, _ = srv.cache.Stats()
	get(t, ts.URL+"/v1/topk?q=11&k=5")
	hits1, _ = srv.cache.Stats()
	if hits1-hits0 != 1 {
		t.Fatalf("/v1/topk after batch: %d new hits, want 1", hits1-hits0)
	}

	// A duplicated source inside one batch is computed once and served to
	// both positions.
	code, body := postJSON(t, ts.URL+"/v1/batch", `{"mode":"topk","sources":[21,21],"k":4}`)
	if code != http.StatusOK {
		t.Fatalf("dup batch status %d", code)
	}
	lines := ndjsonLines(t, body)
	if !bytes.Equal(lines[0], lines[1]) {
		t.Fatal("duplicate sources got different lines")
	}
}

// TestBatchGenerationAwareness: a graph edit bumps the generation, so a
// repeated batch recomputes instead of serving pre-edit bytes.
func TestBatchGenerationAwareness(t *testing.T) {
	_, idx := testIndex(t)
	srv := newServer(idx, 64, 1)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const req = `{"mode":"topk","sources":[8],"k":5}`
	_, before := postJSON(t, ts.URL+"/v1/batch", req)
	if code, body := postJSON(t, ts.URL+"/v1/edges", `{"edits":[{"op":"add","u":8,"v":140},{"op":"add","u":140,"v":8}]}`); code != http.StatusOK {
		t.Fatalf("edges status %d: %s", code, body)
	}
	_, after := postJSON(t, ts.URL+"/v1/batch", req)
	want, err := idx.TopK(context.Background(), 8, 5, &query.TopKOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var got topKResponse
	if err := json.Unmarshal(ndjsonLines(t, after)[0], &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want) {
		t.Fatalf("post-edit batch: %d results, want %d", len(got.Results), len(want))
	}
	for i := range want {
		if got.Results[i] != want[i] {
			t.Fatalf("post-edit batch result %d = %+v, want %+v (stale pre-edit bytes? before=%s)", i, got.Results[i], want[i], before)
		}
	}
}

// TestBatchRequestValidation: request-level problems fail the whole call
// with a 4xx and a JSON error.
func TestBatchRequestValidation(t *testing.T) {
	_, idx := testIndex(t)
	srv := newServer(idx, 64, 1)
	srv.maxBatch = 2
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, tc := range []struct {
		name, body string
	}{
		{"bad json", `{"sources":`},
		{"unknown field", `{"sources":[1],"bogus":true}`},
		{"bad mode", `{"mode":"pagerank","sources":[1]}`},
		{"min in topk", `{"mode":"topk","sources":[1],"min":0.1}`},
		{"k in single_source", `{"mode":"single_source","sources":[1],"k":5}`},
		{"rerank in single_source", `{"mode":"single_source","sources":[1],"rerank":true}`},
		{"negative k", `{"mode":"topk","sources":[1],"k":-2}`},
		{"too many sources", `{"sources":[1,2,3]}`},
	} {
		code, body := postJSON(t, ts.URL+"/v1/batch", tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, code, body)
		}
	}
	if code, _ := get(t, ts.URL+"/v1/batch"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/batch: %d, want 405", code)
	}

	// A dense single_source batch whose output would exceed the score cap
	// is refused before any work happens (n=150 here, so the cap needs
	// maxDenseBatchScores/150 + 1 sources).
	srv.maxBatch = maxDenseBatchScores // lift the source-count limit
	var big strings.Builder
	big.WriteString(`{"mode":"single_source","sources":[0`)
	for i := 0; i < maxDenseBatchScores/150+1; i++ {
		big.WriteString(",0")
	}
	big.WriteString(`]}`)
	if code, body := postJSON(t, ts.URL+"/v1/batch", big.String()); code != http.StatusBadRequest ||
		!strings.Contains(string(body), "dense batch") {
		t.Errorf("oversize dense batch: status %d, body %s", code, body)
	}
}

// TestZeroMinIsAWholeRow: a threshold min <= 0 admits every vertex, so its
// body is O(n) like the dense row's. It stays out of the response cache on
// both endpoints, and a batch of such rows counts against the whole-row
// score cap, refused with a hint that does not ask for the "min" the
// request already passed.
func TestZeroMinIsAWholeRow(t *testing.T) {
	_, idx := testIndex(t)
	n := idx.N()
	srv := newServer(idx, 64, 1)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for round := 0; round < 2; round++ {
		for _, path := range []string{"/v1/single_source?q=31&min=0", "/v1/single_source?q=31&min=-1"} {
			if code, body := get(t, ts.URL+path); code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", path, code, body)
			}
		}
		if code, body := postJSON(t, ts.URL+"/v1/batch", `{"mode":"single_source","sources":[31,32],"min":0}`); code != http.StatusOK {
			t.Fatalf("min 0 batch: status %d: %s", code, body)
		}
	}
	if _, body := get(t, ts.URL+"/metrics"); !strings.Contains(string(body), "simrankd_cache_hits_total 0\n") {
		t.Errorf("repeated whole-row requests hit the cache:\n%s", body)
	}

	srv.maxBatch = maxDenseBatchScores // lift the source-count limit
	var big strings.Builder
	big.WriteString(`{"mode":"single_source","min":0,"sources":[0`)
	for i := 0; i < maxDenseBatchScores/n; i++ {
		big.WriteString(",0")
	}
	big.WriteString(`]}`)
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(big.String()))
	if err != nil {
		t.Fatal(err)
	}
	// Read no more than an error body: a batch that slipped past the cap
	// streams n results per source.
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `raise \"min\" above 0`) ||
		strings.Contains(string(body), `pass \"min\"`) {
		t.Errorf("min 0 batch of %d sources on %d vertices: status %d, body %.200s", maxDenseBatchScores/n+1, n, resp.StatusCode, body)
	}
}

// FuzzSingleMatchesBatch: a single query is a batch of one. For any q (in
// range or not), mode, k, rerank and threshold, a 200 from /v1/topk or
// /v1/single_source is byte for byte the line /v1/batch streams for that
// source, and a refusal of one is a refusal of the other: a failed batch
// request, or the source's item error line carrying the same text. The
// server is the goldens' (gen.WebGraph(60, 5, 101), 200 walks, seed 7)
// with the cache off, so both sides compute.
func FuzzSingleMatchesBatch(f *testing.F) {
	idx, err := query.BuildIndex(gen.WebGraph(goldenN, 5, 101), query.Options{Walks: 200, Seed: 7, Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(idx, Config{CacheSize: -1, Workers: 1})
	serve := func(method, target, body string) (int, []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	f.Fuzz(func(t *testing.T, q int, topk bool, k int, rerank, hasMin bool, min float64) {
		if math.IsNaN(min) || math.IsInf(min, 0) {
			return // JSON cannot carry them
		}
		path := fmt.Sprintf("/v1/single_source?q=%d", q)
		req := map[string]any{"mode": "single_source", "sources": []int{q}}
		switch {
		case topk:
			// An absent k is 10 on both endpoints; the batch spells it 0.
			path = fmt.Sprintf("/v1/topk?q=%d&rerank=%t", q, rerank)
			if k != 0 {
				path += fmt.Sprintf("&k=%d", k)
			}
			req = map[string]any{"mode": "topk", "sources": []int{q}, "k": k, "rerank": rerank}
		case hasMin:
			path += "&min=" + strconv.FormatFloat(min, 'g', -1, 64)
			req["min"] = min
		}
		reqBody, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		code, single := serve("GET", path, "")
		bcode, batch := serve("POST", "/v1/batch", string(reqBody))
		if bcode != http.StatusOK {
			if code == http.StatusOK {
				t.Fatalf("GET %s answered 200, batch %s refused with %d: %s", path, reqBody, bcode, batch)
			}
			return
		}
		lines := ndjsonLines(t, batch)
		if len(lines) != 1 {
			t.Fatalf("batch %s: %d lines", reqBody, len(lines))
		}
		if code == http.StatusOK {
			if !bytes.Equal(append(lines[0], '\n'), single) {
				t.Fatalf("GET %s:\n%s\nbatch %s line:\n%s", path, single, reqBody, lines[0])
			}
			return
		}
		var item batchItemError
		var refusal errorResponse
		if err := json.Unmarshal(lines[0], &item); err != nil || item.Error == "" ||
			json.Unmarshal(single, &refusal) != nil || refusal.Error != item.Error {
			t.Fatalf("GET %s refused with %d: %s\nbatch %s line: %s", path, code, single, reqBody, lines[0])
		}
	})
}

// TestBatchChunk: the per-chunk source count keeps chunk*n within the
// score cap and never rounds to zero.
func TestBatchChunk(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, maxDenseBatchScores},
		{150, maxDenseBatchScores / 150},
		{maxDenseBatchScores, 1},
		{maxDenseBatchScores * 10, 1},
		{0, maxDenseBatchScores},
	} {
		if got := batchChunk(tc.n); got != tc.want {
			t.Errorf("batchChunk(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestJoinEndpoint: /v1/join returns the same pairs the library Join
// produces, caches canonically, and maps a too-dense request to a 400.
func TestJoinEndpoint(t *testing.T) {
	_, idx := testIndex(t)
	srv := newServer(idx, 64, 2)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body := postJSON(t, ts.URL+"/v1/join", `{"k":8,"threshold":0.05}`)
	if code != http.StatusOK {
		t.Fatalf("join status %d: %s", code, body)
	}
	var resp joinResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	want, err := idx.Join(context.Background(), 8, 0.05, &query.JoinOptions{MaxCandidates: srv.joinMaxCand, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Pairs) != len(want) {
		t.Fatalf("join returned %d pairs, want %d", len(resp.Pairs), len(want))
	}
	for i := range want {
		if resp.Pairs[i] != want[i] {
			t.Fatalf("join pair %d = %+v, want %+v", i, resp.Pairs[i], want[i])
		}
	}

	// Canonicalized parameters share a cache entry.
	hits0, _ := srv.cache.Stats()
	postJSON(t, ts.URL+"/v1/join", `{"k":8,"threshold":5e-2}`)
	hits1, _ := srv.cache.Stats()
	if hits1-hits0 != 1 {
		t.Fatalf("canonicalized join re-query: %d new hits, want 1", hits1-hits0)
	}

	srv.joinMaxCand = 3
	if code, body := postJSON(t, ts.URL+"/v1/join", `{"k":8,"threshold":0}`); code != http.StatusBadRequest {
		t.Fatalf("too-dense join: status %d, want 400 (%s)", code, body)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/join", `{"k":-1}`); code != http.StatusBadRequest {
		t.Fatal("negative k join accepted")
	}
	if code, _ := get(t, ts.URL+"/v1/join"); code != http.StatusMethodNotAllowed {
		t.Fatal("GET /v1/join not rejected")
	}
}
