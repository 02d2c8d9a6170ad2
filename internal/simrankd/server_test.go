package simrankd

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/internal/eval"
	"oipsr/internal/walkindex"
	"oipsr/simrank"
	"oipsr/simrank/query"
	"oipsr/simrank/shard"
)

func testIndex(t *testing.T) (*graph.Graph, *query.Index) {
	t.Helper()
	g := gen.WebGraph(150, 8, 101)
	idx, err := query.BuildIndex(g, query.Options{Walks: 1200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return g, idx
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestTopKEndToEnd is the acceptance test: serve /v1/topk from a built
// index and match exact OIP-SR top-k within the precision bound.
func TestTopKEndToEnd(t *testing.T) {
	g, idx := testIndex(t)
	ts := httptest.NewServer(newServer(idx, 64, 1))
	defer ts.Close()

	exact, _, err := simrank.Compute(g, simrank.Options{
		Algorithm: simrank.OIPSR, C: idx.C(), K: idx.Horizon(),
	})
	if err != nil {
		t.Fatal(err)
	}

	const k = 10
	for _, rerank := range []string{"", "&rerank=1"} {
		var sum float64
		queries := []int{0, 19, 37, 56, 75, 93, 112, 131}
		for _, q := range queries {
			code, body := get(t, ts.URL+"/v1/topk?q="+strconv.Itoa(q)+"&k=10"+rerank)
			if code != http.StatusOK {
				t.Fatalf("GET /v1/topk?q=%d: status %d, body %s", q, code, body)
			}
			var resp topKResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatalf("decoding response: %v", err)
			}
			if resp.Query != q || resp.K != k || len(resp.Results) != k {
				t.Fatalf("response header mismatch: %+v", resp)
			}
			sum += precisionAtK(exact.Row(q), q, resp.Results, k)
		}
		p := sum / float64(len(queries))
		if p < 0.9 {
			t.Errorf("rerank=%q: served precision@%d = %.3f, want >= 0.9", rerank, k, p)
		}
	}
}

// TestSaveLoadServesBitIdenticalResponses: an index saved to disk and
// loaded back must answer every query with byte-identical bodies.
func TestSaveLoadServesBitIdenticalResponses(t *testing.T) {
	g, idx := testIndex(t)
	path := filepath.Join(t.TempDir(), "walks.idx")
	if err := idx.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := query.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.AttachGraph(g); err != nil {
		t.Fatal(err)
	}

	tsA := httptest.NewServer(newServer(idx, 0, 1))
	defer tsA.Close()
	tsB := httptest.NewServer(newServer(loaded, 0, 1))
	defer tsB.Close()

	for _, path := range []string{
		"/v1/topk?q=3&k=10",
		"/v1/topk?q=77&k=5&rerank=1",
		"/v1/single_source?q=42",
		"/v1/single_source?q=8&min=0.01",
	} {
		codeA, bodyA := get(t, tsA.URL+path)
		codeB, bodyB := get(t, tsB.URL+path)
		if codeA != http.StatusOK || codeB != http.StatusOK {
			t.Fatalf("%s: status %d / %d", path, codeA, codeB)
		}
		if string(bodyA) != string(bodyB) {
			t.Fatalf("%s: responses differ after Save/Load:\n%s\n%s", path, bodyA, bodyB)
		}
	}
}

func TestSingleSourceEndpoint(t *testing.T) {
	_, idx := testIndex(t)
	ts := httptest.NewServer(newServer(idx, 64, 1))
	defer ts.Close()

	code, body := get(t, ts.URL+"/v1/single_source?q=12")
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, body)
	}
	var resp singleSourceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.N != idx.N() || len(resp.Scores) != idx.N() {
		t.Fatalf("got n=%d, %d scores; want %d", resp.N, len(resp.Scores), idx.N())
	}
	want, err := idx.SingleSource(context.Background(), 12)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if resp.Scores[v] != want[v] {
			t.Fatalf("scores[%d] = %g, want %g", v, resp.Scores[v], want[v])
		}
	}

	// Sparse form: every returned entry clears the threshold, in order.
	code, body = get(t, ts.URL+"/v1/single_source?q=12&min=0.005")
	if code != http.StatusOK {
		t.Fatalf("sparse: status %d, body %s", code, body)
	}
	var sparse singleSourceResponse
	if err := json.Unmarshal(body, &sparse); err != nil {
		t.Fatal(err)
	}
	if len(sparse.Scores) != 0 {
		t.Fatal("sparse response included the dense vector")
	}
	for i, e := range sparse.Results {
		if e.Score < 0.005 || e.Vertex == 12 {
			t.Fatalf("sparse entry %d below threshold or self: %+v", i, e)
		}
		if i > 0 && e.Score > sparse.Results[i-1].Score {
			t.Fatalf("sparse entries not sorted at %d", i)
		}
	}
}

func TestErrorResponses(t *testing.T) {
	_, idx := testIndex(t)
	ts := httptest.NewServer(newServer(idx, 64, 1))
	defer ts.Close()

	for _, tc := range []string{
		"/v1/topk",              // missing q
		"/v1/topk?q=abc",        // non-integer q
		"/v1/topk?q=99999&k=10", // out of range
		"/v1/topk?q=3&k=0",      // bad k
		"/v1/single_source?q=-2",
		"/v1/single_source?q=1&min=xyz",
	} {
		code, body := get(t, ts.URL+tc)
		if code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400 (body %s)", tc, code, body)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("GET %s: non-JSON error body %s", tc, body)
		}
	}
}

// raggedBytes is what a resident index's Bytes must be, counted from its
// walks: 8 bytes of offset per vertex and, per vertex with a live walk, a
// header of ⌈R/2⌉ words of uint16 end offsets plus 4 bytes per live
// position (R·K < 2¹⁶, so a vertex is one group).
func raggedBytes(t *testing.T, g *graph.Graph, idx *query.Index) int64 {
	t.Helper()
	wi, err := walkindex.Build(g, walkindex.Options{C: idx.C(), K: idx.Horizon(), Walks: idx.Walks(), Seed: idx.Seed()}, 0, idx.N())
	if err != nil || idx.Walks()*idx.Horizon() >= 1<<16 {
		t.Fatalf("%v (R·K = %d)", err, idx.Walks()*idx.Horizon())
	}
	b := 8 * int64(idx.N())
	for v := 0; v < idx.N(); v++ {
		live := 0
		for fp := 0; fp < idx.Walks(); fp++ {
			live += len(wi.Walk(g, v, fp))
		}
		if live > 0 {
			b += 4 * int64((idx.Walks()+1)/2+live)
		}
	}
	return b
}

func TestHealthzAndMetrics(t *testing.T) {
	g, idx := testIndex(t)
	ts := httptest.NewServer(newServer(idx, 64, 1))
	defer ts.Close()

	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	var h healthzResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Vertices != idx.N() || h.Walks != idx.Walks() {
		t.Fatalf("healthz = %+v", h)
	}
	// The coalescence order is accounted beside the path storage, not in
	// it: 6 bytes per stored walk on a dense index. The path storage is the
	// ragged layout counted from the walks (the same build, walked again).
	forest := int64(6 * idx.N() * idx.Walks())
	index := raggedBytes(t, g, idx)
	if h.ForestBytes != forest || h.IndexBytes != index {
		t.Fatalf("healthz index_bytes = %d, index_forest_bytes = %d, want %d and 6·n·R = %d", h.IndexBytes, h.ForestBytes, index, forest)
	}

	// Same query twice: the second hit must come from the LRU.
	get(t, ts.URL+"/v1/topk?q=5&k=10")
	get(t, ts.URL+"/v1/topk?q=5&k=10")

	code, body = get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	text := string(body)
	for _, want := range []string{
		`simrankd_requests_total{endpoint="topk"} 2`,
		"simrankd_cache_hits_total 1",
		"simrankd_cache_misses_total 1",
		"simrankd_index_vertices 150",
		fmt.Sprintf("simrankd_index_forest_bytes %d\n", forest),
		fmt.Sprintf("simrankd_index_bytes %d\n", index),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestShardHealthzAndMetricsForestBytes: a shard server accounts its
// range's coalescence order the way the single node does.
func TestShardHealthzAndMetricsForestBytes(t *testing.T) {
	sh, err := shard.Build(gen.WebGraph(90, 5, 3), query.Options{Walks: 20, Seed: 1}, 30, 70)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewShardServer(sh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(ss)
	defer ts.Close()
	want := int64(6 * 40 * 20)
	var h shardHealthzResponse
	_, body := get(t, ts.URL+"/healthz")
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.ForestBytes != want || h.IndexBytes != sh.Bytes() {
		t.Fatalf("shard healthz index_bytes = %d, index_forest_bytes = %d, want %d and %d", h.IndexBytes, h.ForestBytes, sh.Bytes(), want)
	}
	_, body = get(t, ts.URL+"/metrics")
	if line := fmt.Sprintf("simrankd_index_forest_bytes %d\n", want); !strings.Contains(string(body), line) {
		t.Errorf("shard metrics missing %q:\n%s", line, body)
	}
}

// precisionAtK adapts eval.PrecisionAtK (the same tie-fair threshold
// metric the simrank/query accuracy tests use) to a []query.Ranked list.
func precisionAtK(exactRow []float64, q int, got []query.Ranked, k int) float64 {
	ids := make([]int, len(got))
	for i, r := range got {
		ids[i] = r.Vertex
	}
	return eval.PrecisionAtK(exactRow, q, ids, k)
}
