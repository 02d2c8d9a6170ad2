package simrankd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
