package simrankd

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/simrank/query"
)

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// testEditBatch builds the canonical e2e batch against g: a few fresh
// adds plus removals of g's first two actual edges, returned both as the
// POST /v1/edges JSON body and as the equivalent graph.Edit slice.
func testEditBatch(t *testing.T, g *graph.Graph) (string, []graph.Edit) {
	t.Helper()
	edits := []graph.Edit{
		{Op: graph.EditAdd, U: 0, V: 9}, {Op: graph.EditAdd, U: 9, V: 0}, {Op: graph.EditAdd, U: 0, V: 17},
		{Op: graph.EditAdd, U: 33, V: 14}, {Op: graph.EditAdd, U: 60, V: 61}, {Op: graph.EditAdd, U: 61, V: 60},
	}
	count := 0
	g.Edges(func(u, v int) bool {
		edits = append(edits, graph.Edit{Op: graph.EditRemove, U: u, V: v})
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatal("test graph has fewer than 2 edges")
	}
	var reqs []edgeEdit
	for _, e := range edits {
		op := "add"
		if e.Op == graph.EditRemove {
			op = "remove"
		}
		reqs = append(reqs, edgeEdit{Op: op, U: e.U, V: e.V})
	}
	body, err := json.Marshal(edgesRequest{Edits: reqs})
	if err != nil {
		t.Fatal(err)
	}
	return string(body), edits
}

// TestEdgesEndToEnd is the acceptance e2e: POST /v1/edges followed by
// queries must return byte-identical bodies to a restarted server whose
// index was built fresh on the edited graph.
func TestEdgesEndToEnd(t *testing.T) {
	g := gen.WebGraph(100, 8, 55)
	opt := query.Options{Walks: 300, Seed: 9}
	idx, err := query.BuildIndex(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	live := httptest.NewServer(newServer(idx, 64, 2))
	defer live.Close()
	editsJSON, edits := testEditBatch(t, g)

	// Warm the cache with pre-edit responses on the queries we will
	// re-issue post-edit.
	queries := []string{
		"/v1/topk?q=9&k=10",
		"/v1/topk?q=0&k=5&rerank=1",
		"/v1/single_source?q=9&min=0.001",
		"/v1/single_source?q=61",
	}
	preEdit := map[string][]byte{}
	for _, p := range queries {
		code, body := get(t, live.URL+p)
		if code != http.StatusOK {
			t.Fatalf("pre-edit GET %s: status %d, body %s", p, code, body)
		}
		preEdit[p] = body
		get(t, live.URL+p) // second hit comes from the LRU
	}

	code, body := postJSON(t, live.URL+"/v1/edges", editsJSON)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/edges: status %d, body %s", code, body)
	}
	var er edgesResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Generation != 1 || er.Added == 0 || er.Removed == 0 || er.WalksRepaired == 0 {
		t.Fatalf("edges response = %+v, want generation 1 with effective changes", er)
	}

	// The "restarted server": fresh index built on the edited graph.
	g2, _, err := g.ApplyEdits(edits)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != er.Edges {
		t.Fatalf("server reports %d edges, offline edit gives %d", er.Edges, g2.NumEdges())
	}
	fresh, err := query.BuildIndex(g2, opt)
	if err != nil {
		t.Fatal(err)
	}
	restarted := httptest.NewServer(newServer(fresh, 64, 2))
	defer restarted.Close()

	for _, p := range queries {
		codeL, bodyL := get(t, live.URL+p)
		codeR, bodyR := get(t, restarted.URL+p)
		if codeL != http.StatusOK || codeR != http.StatusOK {
			t.Fatalf("post-edit GET %s: status %d / %d", p, codeL, codeR)
		}
		if !bytes.Equal(bodyL, bodyR) {
			t.Errorf("post-edit %s: live body differs from restarted server\nlive:      %s\nrestarted: %s", p, bodyL, bodyR)
		}
		if bytes.Equal(bodyL, preEdit[p]) && p != "/v1/single_source?q=61" {
			// q=61 gained its first edges, so its pre-edit body (all zeros)
			// must change; the others were chosen to change too — but the
			// real guarantee is live == restarted, checked above.
			t.Logf("note: %s response unchanged by the batch", p)
		}
	}
}

// TestEdgesInvalidatesCache: a cached pre-edit response must never be
// served after an update, even for the identical URL.
func TestEdgesInvalidatesCache(t *testing.T) {
	g := gen.WebGraph(80, 6, 12)
	idx, err := query.BuildIndex(g, query.Options{Walks: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(idx, 64, 1)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const url = "/v1/topk?q=7&k=5"
	get(t, ts.URL+url)
	get(t, ts.URL+url)
	hits0, misses0 := srv.cache.Stats()
	if hits0 != 1 || misses0 != 1 {
		t.Fatalf("warmup: hits=%d misses=%d, want 1/1", hits0, misses0)
	}

	// An effective edit bumps the generation; the same URL must miss the
	// cache (the old entry's key embeds the old generation).
	code, body := postJSON(t, ts.URL+"/v1/edges", `{"edits":[{"op":"add","u":50,"v":7},{"op":"add","u":51,"v":7}]}`)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/edges: status %d, body %s", code, body)
	}
	get(t, ts.URL+url)
	hits1, misses1 := srv.cache.Stats()
	if hits1 != hits0 {
		t.Fatalf("post-edit request hit the stale cache (hits %d -> %d)", hits0, hits1)
	}
	if misses1 != misses0+1 {
		t.Fatalf("post-edit request missed %d times, want exactly one more than %d", misses1, misses0)
	}

	// A pure no-op batch must NOT invalidate: generation stays, cache hits.
	code, body = postJSON(t, ts.URL+"/v1/edges", `{"edits":[{"op":"add","u":50,"v":7}]}`)
	if code != http.StatusOK {
		t.Fatalf("no-op POST /v1/edges: status %d, body %s", code, body)
	}
	var er edgesResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Added != 0 || er.Removed != 0 || er.Generation != 1 {
		t.Fatalf("no-op batch response = %+v", er)
	}
	get(t, ts.URL+url)
	hits2, _ := srv.cache.Stats()
	if hits2 != hits1+1 {
		t.Fatalf("no-op batch invalidated the cache (hits %d -> %d)", hits1, hits2)
	}
}

// TestConcurrentQueriesAndUpdates hammers the server with parallel reads
// while edit batches land, verifying the RWMutex guard under -race and
// that every response is well-formed at whatever generation served it.
func TestConcurrentQueriesAndUpdates(t *testing.T) {
	g := gen.WebGraph(60, 6, 31)
	idx, err := query.BuildIndex(g, query.Options{Walks: 100, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(idx, 32, 2))
	defer ts.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q := (i*7 + r) % 60
				code, body := get(t, ts.URL+"/v1/topk?q="+strconv.Itoa(q)+"&k=5")
				if code != http.StatusOK {
					t.Errorf("reader %d: status %d, body %s", r, code, body)
					return
				}
				var resp topKResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	for i := 0; i < 10; i++ {
		u, v := (i*13)%60, (i*29+7)%60
		op := "add"
		if i%3 == 2 {
			op = "remove"
		}
		body := `{"edits":[{"op":"` + op + `","u":` + strconv.Itoa(u) + `,"v":` + strconv.Itoa(v) + `}]}`
		if code, resp := postJSON(t, ts.URL+"/v1/edges", body); code != http.StatusOK {
			t.Fatalf("update %d: status %d, body %s", i, code, resp)
		}
	}
	close(done)
	wg.Wait()
}

// TestEdgesValidation: malformed bodies and invalid edits are rejected
// without changing the served graph.
func TestEdgesValidation(t *testing.T) {
	g := gen.WebGraph(40, 5, 2)
	idx, err := query.BuildIndex(g, query.Options{Walks: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(idx, 16, 1))
	defer ts.Close()

	for _, body := range []string{
		`not json`,
		`{"edits":[{"op":"frobnicate","u":0,"v":1}]}`,
		`{"edits":[{"op":"add","u":0,"v":40}]}`, // out of range
		`{"edits":[{"op":"add","u":-1,"v":0}]}`, // negative
		`{"editz":[{"op":"add","u":0,"v":1}]}`,  // unknown field
	} {
		code, resp := postJSON(t, ts.URL+"/v1/edges", body)
		if code != http.StatusBadRequest {
			t.Errorf("POST /v1/edges %q: status %d, want 400 (resp %s)", body, code, resp)
		}
	}
	// Nothing above may have bumped the generation.
	if idx.Generation() != 0 {
		t.Fatalf("rejected batches bumped generation to %d", idx.Generation())
	}
}

// TestMethodNotAllowed: /v1 endpoints answer 405 (with Allow) for methods
// they don't serve, instead of silently handling them.
func TestMethodNotAllowed(t *testing.T) {
	forEachBackend(t, func(t *testing.T, kind string) {
		ts := httptest.NewServer(smallBackend(t, kind, Config{CacheSize: 16, Workers: 1}))
		defer ts.Close()

		check := func(method, path, wantAllow string) {
			t.Helper()
			req, err := http.NewRequest(method, ts.URL+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405 (body %s)", method, path, resp.StatusCode, body)
			}
			if got := resp.Header.Get("Allow"); got != wantAllow {
				t.Errorf("%s %s: Allow = %q, want %q", method, path, got, wantAllow)
			}
		}
		check(http.MethodDelete, "/v1/topk?q=1", "GET, POST")
		check(http.MethodPut, "/v1/single_source?q=1", "GET, POST")
		check(http.MethodGet, "/v1/edges", "POST")
		check(http.MethodDelete, "/v1/edges", "POST")
	})
}

// TestMinCacheKeyCanonical: equivalent spellings of min must share one
// cache entry, keyed on the parsed value.
func TestMinCacheKeyCanonical(t *testing.T) {
	forEachBackend(t, func(t *testing.T, kind string) {
		srv := smallBackend(t, kind, Config{CacheSize: 64, Workers: 1})
		ts := httptest.NewServer(srv)
		defer ts.Close()

		var bodies [][]byte
		for _, m := range []string{"0.01", "0.010", "1e-2"} {
			code, body := get(t, ts.URL+"/v1/single_source?q=3&min="+m)
			if code != http.StatusOK {
				t.Fatalf("min=%s: status %d", m, code)
			}
			bodies = append(bodies, body)
		}
		for i := 1; i < len(bodies); i++ {
			if !bytes.Equal(bodies[0], bodies[i]) {
				t.Fatal("equivalent min spellings returned different bodies")
			}
		}
		hits, misses := srv.cache.Stats()
		if misses != 1 || hits != 2 {
			t.Fatalf("cache stats hits=%d misses=%d, want 2 hits / 1 miss for three equivalent spellings", hits, misses)
		}
	})
}

// TestErrorPathsCountLatency: 4xx responses contribute latency samples
// (the pre-fix code only counted successes, skewing the average).
func TestErrorPathsCountLatency(t *testing.T) {
	forEachBackend(t, func(t *testing.T, kind string) {
		srv := smallBackend(t, kind, Config{CacheSize: 16, Workers: 1})
		ts := httptest.NewServer(srv)
		defer ts.Close()

		get(t, ts.URL+"/v1/topk")              // 400: missing q
		get(t, ts.URL+"/v1/single_source?q=x") // 400: bad q
		postJSON(t, ts.URL+"/v1/edges", `bad`) // 400: bad body
		if n := srv.latency.Count(); n != 3 {
			t.Fatalf("latency samples = %d after 3 error responses, want 3", n)
		}
		get(t, ts.URL+"/v1/topk?q=1&k=3")
		if n := srv.latency.Count(); n != 4 {
			t.Fatalf("latency samples = %d after a success, want 4", n)
		}
	})
}
