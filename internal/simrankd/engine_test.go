package simrankd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"oipsr/simrank"
)

// TestEngineParamValidation pins the ?engine= error surface: an unknown
// engine is a 400 with a stable message on every engine-aware endpoint,
// the walk-only endpoints reject an explicit non-walk engine, and rerank
// conflicts with the exact engine.
func TestEngineParamValidation(t *testing.T) {
	_, idx := testIndex(t)
	ts := httptest.NewServer(newServer(idx, 0, 1))
	defer ts.Close()

	wantUnknown := `{"error":"unknown engine \"bogus\" (want \"walk\" or \"linearized\")"}` + "\n"
	for _, path := range []string{"/v1/single_source?q=1&engine=bogus", "/v1/topk?q=1&k=5&engine=bogus"} {
		code, body := get(t, ts.URL+path)
		if code != http.StatusBadRequest || string(body) != wantUnknown {
			t.Errorf("GET %s: status %d, body %q", path, code, body)
		}
	}
	for _, c := range []struct{ path, body string }{
		{"/v1/batch?engine=linearized", `{"mode":"topk","sources":[1],"k":3}`},
		{"/v1/join?engine=linearized", `{"k":3,"threshold":0.2}`},
	} {
		code, body := postJSON(t, ts.URL+c.path, c.body)
		if code != http.StatusBadRequest || !strings.Contains(string(body), "walk only") {
			t.Errorf("POST %s: status %d, body %q", c.path, code, body)
		}
	}
	code, body := get(t, ts.URL+"/v1/topk?q=1&k=5&engine=linearized&rerank=1")
	if code != http.StatusBadRequest || !strings.Contains(string(body), "rerank") {
		t.Errorf("rerank+linearized: status %d, body %q", code, body)
	}
}

// TestEngineWalkByteIdentity: an explicit engine=walk must be
// byte-for-byte the no-parameter request — the seam must not perturb the
// default path at all.
func TestEngineWalkByteIdentity(t *testing.T) {
	_, idx := testIndex(t)
	ts := httptest.NewServer(newServer(idx, 0, 1))
	defer ts.Close()

	for _, path := range []string{
		"/v1/single_source?q=17",
		"/v1/single_source?q=5&min=0.001",
		"/v1/topk?q=7&k=9",
		"/v1/topk?q=7&k=9&rerank=1",
	} {
		_, plain := get(t, ts.URL+path)
		_, tagged := get(t, ts.URL+path+"&engine=walk")
		if !bytes.Equal(plain, tagged) {
			t.Errorf("%s: engine=walk body differs\nplain:  %s\ntagged: %s", path, plain, tagged)
		}
	}
}

// TestLinearizedEndpointAccuracy is the serving-layer accuracy gate:
// /v1/single_source?engine=linearized must agree with a deeply converged
// naive run within 1e-8, and /v1/topk?engine=linearized must rank by those
// exact scores.
func TestLinearizedEndpointAccuracy(t *testing.T) {
	g, idx := testIndex(t)
	ts := httptest.NewServer(newServer(idx, 0, 1))
	defer ts.Close()

	ref, _, err := simrank.Compute(g, simrank.Options{Algorithm: simrank.Naive, C: idx.C(), K: 100, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{0, 41, 149} {
		code, body := get(t, fmt.Sprintf("%s/v1/single_source?q=%d&engine=linearized", ts.URL, q))
		if code != http.StatusOK {
			t.Fatalf("q=%d: status %d, body %s", q, code, body)
		}
		var resp singleSourceResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Degraded {
			t.Fatalf("q=%d: unexpected degraded response", q)
		}
		refRow := ref.Row(q)
		for j, v := range resp.Scores {
			if d := math.Abs(v - refRow[j]); d > 1e-8 {
				t.Fatalf("q=%d: s(%d) = %g vs converged naive %g (diff %g)", q, j, v, refRow[j], d)
			}
		}
	}

	const q, k = 17, 8
	code, body := get(t, fmt.Sprintf("%s/v1/topk?q=%d&k=%d&engine=linearized", ts.URL, q, k))
	if code != http.StatusOK {
		t.Fatalf("topk: status %d, body %s", code, body)
	}
	var topk topKResponse
	if err := json.Unmarshal(body, &topk); err != nil {
		t.Fatal(err)
	}
	if topk.Reranked || topk.Degraded || len(topk.Results) != k {
		t.Fatalf("topk header mismatch: %+v", topk)
	}
	refRow := ref.Row(q)
	prev := math.Inf(1)
	for _, rk := range topk.Results {
		if rk.Score > prev {
			t.Fatalf("topk results not sorted: %v", topk.Results)
		}
		prev = rk.Score
		if d := math.Abs(rk.Score - refRow[rk.Vertex]); d > 1e-8 {
			t.Fatalf("topk vertex %d: score %g vs converged naive %g", rk.Vertex, rk.Score, refRow[rk.Vertex])
		}
	}
}

// TestLinearizedCacheIsolation: walk and linearized answers live under
// distinct cache-key families, and an edit batch (generation bump) makes
// the old exact entries unreachable and forces a re-solve.
func TestLinearizedCacheIsolation(t *testing.T) {
	forEachBackend(t, func(t *testing.T, kind string) {
		srv := smallBackend(t, kind, Config{CacheSize: 64, Workers: 1})
		ts := httptest.NewServer(srv)
		defer ts.Close()

		const path = "/v1/single_source?q=3&min=0.001"
		_, walk1 := get(t, ts.URL+path)
		_, lin1 := get(t, ts.URL+path+"&engine=linearized")
		if bytes.Equal(walk1, lin1) {
			t.Fatal("walk and linearized bodies identical — cache keys must have collided")
		}
		// Both are now cached; re-reading must return each engine's own body.
		_, walk2 := get(t, ts.URL+path)
		_, lin2 := get(t, ts.URL+path+"&engine=linearized")
		if !bytes.Equal(walk1, walk2) || !bytes.Equal(lin1, lin2) {
			t.Fatal("cached re-read changed a body")
		}

		if !exactBuilt(srv) {
			t.Fatal("exact solver should be built after a linearized query")
		}
		if code, body := postJSON(t, ts.URL+"/v1/edges", `{"edits":[{"op":"add","u":3,"v":110}]}`); code != http.StatusOK {
			t.Fatalf("edges: status %d, body %s", code, body)
		}
		if exactBuilt(srv) {
			t.Fatal("exact solver must be stale after an effective edit batch")
		}
		code, lin3 := get(t, ts.URL+path+"&engine=linearized")
		if code != http.StatusOK {
			t.Fatalf("post-edit linearized: status %d, body %s", code, lin3)
		}
		if !exactBuilt(srv) {
			t.Fatal("exact solver should be rebuilt by the post-edit query")
		}
	})
}

// TestLinearizedDegradesUnderDeadline: with the exact-solve cost model
// seeded far above the request deadline, a linearized request must be
// served the walk estimates marked degraded (body field + header) and the
// degraded body must never enter the cache.
func TestLinearizedDegradesUnderDeadline(t *testing.T) {
	_, idx := testIndex(t)
	srv := NewServer(idx, Config{CacheSize: 64, Workers: 1, RequestTimeout: 2 * time.Second})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Seed the cost model as if one exact solve took an hour.
	srv.observeExact(time.Hour)

	const path = "/v1/single_source?q=33&engine=linearized"
	for round := 0; round < 2; round++ {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var body singleSourceResponse
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d", round, resp.StatusCode)
		}
		if !body.Degraded || resp.Header.Get("X-Simrank-Degraded") != "true" {
			t.Fatalf("round %d: expected degraded walk fallback, got %+v (header %q)",
				round, body, resp.Header.Get("X-Simrank-Degraded"))
		}
	}
	// The degraded fallback is the walk estimate itself.
	_, walk := get(t, ts.URL+"/v1/single_source?q=33")
	var walkResp singleSourceResponse
	if err := json.Unmarshal(walk, &walkResp); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	var degResp singleSourceResponse
	if err := json.NewDecoder(resp.Body).Decode(&degResp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for j, v := range degResp.Scores {
		if v != walkResp.Scores[j] {
			t.Fatalf("degraded scores differ from walk estimates at %d: %g vs %g", j, v, walkResp.Scores[j])
		}
	}

	// Same contract on topk.
	resp, err = http.Get(ts.URL + "/v1/topk?q=33&k=5&engine=linearized")
	if err != nil {
		t.Fatal(err)
	}
	var tk topKResponse
	if err := json.NewDecoder(resp.Body).Decode(&tk); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !tk.Degraded || tk.Reranked || resp.Header.Get("X-Simrank-Degraded") != "true" {
		t.Fatalf("topk degrade: %+v (header %q)", tk, resp.Header.Get("X-Simrank-Degraded"))
	}
	if srv.degradedTotal.Load() == 0 {
		t.Fatal("degradedTotal not incremented")
	}
}

// TestRouterLinearized: the router solves exact queries locally over its
// full graph, and its linearized answers must be byte-identical to the
// single-node daemon's (same solver, same graph, same encoding), healthy
// or degraded-free. Walk-engine probes stay byte-identical too.
func TestRouterLinearized(t *testing.T) {
	fl := newRouterFleet(t, 3, Config{Workers: 1}, 0)
	for _, path := range []string{
		"/v1/single_source?q=4&engine=linearized",
		"/v1/single_source?q=77&min=0.001&engine=linearized",
		fmt.Sprintf("/v1/single_source?q=%d&engine=linearized", fl.n-1),
		"/v1/topk?q=11&k=7&engine=linearized",
		"/v1/single_source?q=4&engine=walk",
		"/v1/topk?q=11&k=7&engine=walk",
		"/v1/topk?q=11&k=7&engine=bogus",
	} {
		cs, bs := get(t, fl.single.URL+path)
		cr, br := get(t, fl.router.URL+path)
		if cs != cr {
			t.Errorf("%s: status single=%d router=%d (router body %q)", path, cs, cr, br)
			continue
		}
		if !bytes.Equal(bs, br) {
			t.Errorf("%s: bodies differ\nsingle: %s\nrouter: %s", path, bs, br)
		}
	}
}

// TestEngineMetrics: the per-engine request counters must appear on
// /metrics and track /v1/single_source and /v1/topk requests.
func TestEngineMetrics(t *testing.T) {
	_, idx := testIndex(t)
	ts := httptest.NewServer(newServer(idx, 0, 1))
	defer ts.Close()

	get(t, ts.URL+"/v1/single_source?q=1")
	get(t, ts.URL+"/v1/topk?q=1&k=3&engine=walk")
	get(t, ts.URL+"/v1/single_source?q=1&engine=linearized")

	_, body := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		`simrankd_engine_requests_total{engine="walk"} 2`,
		`simrankd_engine_requests_total{engine="linearized"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestCostModelMetrics: the degradation cost model is readable from
// /metrics on both shapes — the two EWMA cells as gauges, 0 until their
// first observation, and the rerank time histogram — and moves when a
// rerank or an exact solve completes.
func TestCostModelMetrics(t *testing.T) {
	fl := newRouterFleet(t, 2, Config{Workers: 1}, 0)
	for name, base := range map[string]string{"single": fl.single.URL, "router": fl.router.URL} {
		_, body := get(t, base+"/metrics")
		for _, want := range []string{
			"simrankd_rerank_nanos_per_candidate 0\n",
			"simrankd_exact_solve_nanos 0\n",
			"simrankd_rerank_seconds_count 0\n",
		} {
			if !strings.Contains(string(body), want) {
				t.Errorf("%s before any rerank: metrics missing %q", name, want)
			}
		}

		work := metricValues(t, body, rerankWorkNames)

		// A plain top-k observes nothing; a reranked one seeds the rerank
		// cell and adds to the process's rerank work; the second
		// linearized solve (the first pays the one-time diagonal and is
		// skipped) seeds the exact cell.
		get(t, base+"/v1/topk?q=11&k=5")
		if code, body := get(t, base+"/v1/topk?q=11&k=5&rerank=1"); code != http.StatusOK {
			t.Fatalf("%s rerank: %d %s", name, code, body)
		}
		get(t, base+"/v1/single_source?q=4&engine=linearized")
		get(t, base+"/v1/single_source?q=5&engine=linearized")

		_, body = get(t, base+"/metrics")
		for _, gone := range []string{"simrankd_rerank_nanos_per_candidate 0\n", "simrankd_exact_solve_nanos 0\n"} {
			if strings.Contains(string(body), gone) {
				t.Errorf("%s after a rerank and a solve: %q did not move", name, strings.TrimSpace(gone))
			}
		}
		for _, want := range []string{"simrankd_rerank_seconds_count 1\n", `simrankd_rerank_seconds_bucket{le="+Inf"} 1` + "\n"} {
			if !strings.Contains(string(body), want) {
				t.Errorf("%s after one rerank: metrics missing %q", name, want)
			}
		}
		for i, after := range metricValues(t, body, rerankWorkNames) {
			if after <= work[i] {
				t.Errorf("%s after one rerank: %s = %d, %d before", name, rerankWorkNames[i], after, work[i])
			}
		}
	}
}

// metricValues reads the integer value of each named series from a
// /metrics body.
func metricValues(t *testing.T, body []byte, names []string) []int64 {
	t.Helper()
	out := make([]int64, len(names))
	for i, name := range names {
		j := bytes.Index(body, []byte("\n"+name+" "))
		if j < 0 {
			t.Fatalf("metrics missing %s", name)
		}
		line := body[j+len(name)+2:]
		v, err := strconv.ParseInt(string(line[:bytes.IndexByte(line, '\n')]), 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[i] = v
	}
	return out
}

// TestRerankCostModelOneUnit: the rerank cost cell holds one source's
// rerank time per candidate however the reranks ran. Under a clock that
// reads every rerank as 1 ms, a batch of W sources reranked in parallel on
// W workers must leave the cell where W single reranks of the same
// sources leave it, and give the histogram one observation per source. A
// rule that divided the batch's wall time by all of its candidates would
// read W times too low, and a rerank=1 the deadline cannot afford would be
// attempted instead of degraded.
func TestRerankCostModelOneUnit(t *testing.T) {
	const workers = 4
	sources := []int{3, 17, 40, 77}
	defer func(clock func(time.Time) time.Duration) { since = clock }(since)
	since = func(time.Time) time.Duration { return time.Millisecond }
	forEachBackend(t, func(t *testing.T, kind string) {
		srv := smallBackend(t, kind, Config{CacheSize: -1, Workers: workers})
		serve := func(method, target, body string) {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
			if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"reranked":true`) {
				t.Fatalf("%s %s %s: status %d, body %s", method, target, body, rec.Code, rec.Body)
			}
		}
		for _, q := range sources {
			serve("GET", fmt.Sprintf("/v1/topk?q=%d&k=5&rerank=1", q), "")
		}
		single, singles := srv.rerankNanosPerCand.Load(), srv.rerankSeconds.Count()
		srv.rerankNanosPerCand.Store(0)
		serve("POST", "/v1/batch", `{"mode":"topk","sources":[3,17,40,77],"k":5,"rerank":true}`)
		if batch := srv.rerankNanosPerCand.Load(); single == 0 || batch != single {
			t.Errorf("rerank cell after %d single reranks = %d ns/candidate, after a batch of them on %d workers = %d", len(sources), single, workers, batch)
		}
		if got := srv.rerankSeconds.Count() - singles; singles != uint64(len(sources)) || got != singles {
			t.Errorf("rerank histogram: %d observations from %d single reranks, %d from the batch", singles, len(sources), got)
		}
	})
}
