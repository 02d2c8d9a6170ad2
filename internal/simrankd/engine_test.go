package simrankd

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// engineCases are the read requests the ?engine= tests send: every read
// endpoint, with and without the options that change its answer.
var engineCases = []struct{ method, path, body string }{
	{"GET", "/v1/single_source?q=17", ""},
	{"GET", "/v1/single_source?q=5&min=0.001", ""},
	{"GET", "/v1/topk?q=7&k=9", ""},
	{"GET", "/v1/topk?q=7&k=9&rerank=1", ""},
	{"POST", "/v1/batch", `{"mode":"topk","sources":[3,17,200],"k":4,"rerank":true}`},
	{"POST", "/v1/batch", `{"mode":"single_source","sources":[5,6],"min":0.002}`},
	{"POST", "/v1/join", `{"k":5,"threshold":0.15}`},
}

// forEachEngineCase calls check with every engine case against a serve
// node and a two-shard router over the same graph (the cache is off, so
// every answer is computed afresh). ask sends the case with the given
// ?engine= value, or with none when it is "".
func forEachEngineCase(t *testing.T, check func(where string, ask func(engine string) (int, []byte))) {
	t.Helper()
	fl := newRouterFleet(t, 2, Config{Workers: 1, CacheSize: -1}, 0)
	for _, c := range engineCases {
		for mode, base := range map[string]string{"serve": fl.single.URL, "router": fl.router.URL} {
			check(mode+" "+c.path+" "+c.body, func(engine string) (int, []byte) {
				url := base + c.path
				if engine != "" {
					sep := "?"
					if strings.Contains(c.path, "?") {
						sep = "&"
					}
					url += sep + "engine=" + engine
				}
				if c.method == "GET" {
					return get(t, url)
				}
				return postJSON(t, url, c.body)
			})
		}
	}
}

// TestEngineWalkByteIdentity: on every read endpoint, in serve mode and
// through a router, engine=walk answers byte for byte as no engine does.
func TestEngineWalkByteIdentity(t *testing.T) {
	forEachEngineCase(t, func(where string, ask func(string) (int, []byte)) {
		code, plain := ask("")
		if code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", where, code, plain)
		}
		if code, walk := ask("walk"); code != http.StatusOK || !bytes.Equal(plain, walk) {
			t.Errorf("%s: engine=walk gave %d, body differs from no engine\nplain: %s\nwalk:  %s", where, code, plain, walk)
		}
	})
}

// TestEngineParamValidation: ?engine= is input validation on every read
// endpoint, in serve mode and through a router. Any engine but walk —
// "linearized" included, which simrankd no longer serves — is the one 400,
// whatever else the request asks.
func TestEngineParamValidation(t *testing.T) {
	forEachEngineCase(t, func(where string, ask func(string) (int, []byte)) {
		for _, engine := range []string{"linearized", "bogus"} {
			want := fmt.Sprintf(`{"error":"unknown engine \"%s\" (want \"walk\")"}`, engine) + "\n"
			if code, body := ask(engine); code != http.StatusBadRequest || string(body) != want {
				t.Errorf("%s engine=%s: status %d, body %q, want 400 %q", where, engine, code, body, want)
			}
		}
	})
}

// TestCostModelMetrics: the degradation cost model is readable from
// /metrics on both shapes — the EWMA cell as a gauge, 0 until its first
// observation, and the rerank time histogram — and moves when a rerank
// completes.
func TestCostModelMetrics(t *testing.T) {
	fl := newRouterFleet(t, 2, Config{Workers: 1}, 0)
	for name, base := range map[string]string{"single": fl.single.URL, "router": fl.router.URL} {
		_, body := get(t, base+"/metrics")
		for _, want := range []string{
			"simrankd_rerank_nanos_per_candidate 0\n",
			"simrankd_rerank_seconds_count 0\n",
		} {
			if !strings.Contains(string(body), want) {
				t.Errorf("%s before any rerank: metrics missing %q", name, want)
			}
		}

		work := metricValues(t, body, rerankWorkNames)

		// A plain top-k observes nothing; a reranked one seeds the rerank
		// cell and adds to the process's rerank work.
		get(t, base+"/v1/topk?q=11&k=5")
		if code, body := get(t, base+"/v1/topk?q=11&k=5&rerank=1"); code != http.StatusOK {
			t.Fatalf("%s rerank: %d %s", name, code, body)
		}

		_, body = get(t, base+"/metrics")
		if gone := "simrankd_rerank_nanos_per_candidate 0\n"; strings.Contains(string(body), gone) {
			t.Errorf("%s after a rerank: %q did not move", name, strings.TrimSpace(gone))
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
