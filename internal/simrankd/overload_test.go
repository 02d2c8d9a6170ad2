package simrankd

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"oipsr/graph/gen"
	"oipsr/simrank/query"
)

// waitFor polls cond every millisecond until it holds or the deadline
// passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSheddingUnderSaturation: with every execution slot held and the
// wait queue full, the next request is shed immediately with 429 and a
// Retry-After header — it must not queue unboundedly or hang. Queued
// requests complete normally once slots free up.
func TestSheddingUnderSaturation(t *testing.T) {
	forEachBackend(t, func(t *testing.T, kind string) {
		srv := smallBackend(t, kind, Config{CacheSize: -1, Workers: 1, MaxInflight: 1, QueueDepth: 1})
		entered := make(chan struct{}, 8)
		gate := make(chan struct{})
		srv.testHookInflight = func(*http.Request) {
			entered <- struct{}{}
			<-gate
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()

		type result struct {
			code int
			err  error
		}
		results := make(chan result, 2)
		do := func() {
			resp, err := http.Get(ts.URL + "/v1/topk?q=1&k=5")
			if err != nil {
				results <- result{0, err}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- result{resp.StatusCode, nil}
		}

		go do() // A: takes the only slot, blocks in the hook
		<-entered
		go do() // B: queues
		waitFor(t, "request B to queue", func() bool { return srv.queued.Load() == 1 })

		// C: slot busy, queue full -> shed now.
		resp, err := http.Get(ts.URL + "/v1/topk?q=2&k=5")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("saturated request: status %d, want 429 (body %s)", resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("429 response missing Retry-After header")
		}
		if !strings.Contains(string(body), "saturated") {
			t.Errorf("429 body = %s, want a saturation explanation", body)
		}
		if got := srv.shedTotal.Load(); got != 1 {
			t.Errorf("shed counter = %d, want 1", got)
		}

		close(gate) // A finishes; B gets the slot and sails through the open gate
		for i := 0; i < 2; i++ {
			r := <-results
			if r.err != nil || r.code != http.StatusOK {
				t.Fatalf("held/queued request: code %d err %v, want 200", r.code, r.err)
			}
		}

		// The counters surface on /metrics in the Prometheus text format.
		code, metrics := get(t, ts.URL+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("metrics: status %d", code)
		}
		for _, want := range []string{
			"simrankd_requests_shed_total 1",
			"simrankd_inflight_requests 0",
			"simrankd_requests_degraded_total 0",
			`simrankd_request_latency_seconds_bucket{le="+Inf"} 3`,
			"simrankd_request_latency_seconds_count 3",
		} {
			if !strings.Contains(string(metrics), want) {
				t.Errorf("metrics output missing %q", want)
			}
		}
	})
}

// TestQueuedRequestDeadline: a request whose deadline expires while still
// waiting for an execution slot gets a 503, not an eternity in the queue.
func TestQueuedRequestDeadline(t *testing.T) {
	forEachBackend(t, func(t *testing.T, kind string) {
		srv := smallBackend(t, kind, Config{CacheSize: -1, Workers: 1, MaxInflight: 1, QueueDepth: 4})
		entered := make(chan struct{}, 1)
		gate := make(chan struct{})
		srv.testHookInflight = func(*http.Request) {
			select {
			case entered <- struct{}{}:
				<-gate
			default: // later requests pass through
			}
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()
		// Registered after ts.Close so it runs first: Close waits for the
		// gated request, which only finishes once the gate opens.
		defer close(gate)

		go http.Get(ts.URL + "/v1/topk?q=1&k=5") // holds the slot
		<-entered

		resp, err := http.Get(ts.URL + "/v1/topk?q=2&k=5&timeout_ms=50")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("queued past deadline: status %d, want 503", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("503 response missing Retry-After header")
		}
	})
}

// TestTimeoutParamValidation: a malformed or non-positive timeout_ms is a
// 400, and it may only shorten the server's timeout, never extend it.
func TestTimeoutParamValidation(t *testing.T) {
	forEachBackend(t, func(t *testing.T, kind string) {
		srv := smallBackend(t, kind, Config{CacheSize: -1, Workers: 1})
		ts := httptest.NewServer(srv)
		defer ts.Close()

		for _, bad := range []string{"abc", "0", "-5", "1.5"} {
			code, _ := get(t, ts.URL+"/v1/topk?q=1&k=5&timeout_ms="+bad)
			if code != http.StatusBadRequest {
				t.Errorf("timeout_ms=%s: status %d, want 400", bad, code)
			}
		}
	})
}

// TestDegradedTopK: when the remaining deadline cannot afford the exact
// rerank, /v1/topk serves the raw walk estimates — bit-identical to the
// rerank=0 response — marked by the degraded field and X-Simrank-Degraded
// header, and never cached.
func TestDegradedTopK(t *testing.T) {
	forEachBackend(t, func(t *testing.T, kind string) {
		srv := smallBackend(t, kind, Config{Workers: 1})
		ts := httptest.NewServer(srv)
		defer ts.Close()

		// The estimate-only baseline the degraded response must match.
		var raw topKResponse
		code, body := get(t, ts.URL+"/v1/topk?q=3&k=8")
		if code != http.StatusOK {
			t.Fatalf("baseline: status %d", code)
		}
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Fatal(err)
		}

		// Seed the cost model with an absurd per-candidate cost so any
		// deadline triggers degradation deterministically.
		srv.rerankNanosPerCand.Store(uint64(time.Second))

		resp, err := http.Get(ts.URL + "/v1/topk?q=3&k=8&rerank=1&timeout_ms=1000")
		if err != nil {
			t.Fatal(err)
		}
		dbody, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("degraded request: status %d (body %s)", resp.StatusCode, dbody)
		}
		if got := resp.Header.Get("X-Simrank-Degraded"); got != "true" {
			t.Errorf("X-Simrank-Degraded = %q, want \"true\"", got)
		}
		var deg topKResponse
		if err := json.Unmarshal(dbody, &deg); err != nil {
			t.Fatal(err)
		}
		if !deg.Degraded || deg.Reranked {
			t.Errorf("degraded response flags: degraded=%t reranked=%t, want true/false", deg.Degraded, deg.Reranked)
		}
		if len(deg.Results) != len(raw.Results) {
			t.Fatalf("degraded results: %d entries, raw %d", len(deg.Results), len(raw.Results))
		}
		for i := range raw.Results {
			if deg.Results[i] != raw.Results[i] {
				t.Fatalf("degraded result %d = %+v, raw estimate %+v — degraded responses must be bit-identical to rerank=0", i, deg.Results[i], raw.Results[i])
			}
		}
		if got := srv.degradedTotal.Load(); got != 1 {
			t.Errorf("degraded counter = %d, want 1", got)
		}

		// Degraded bodies must not be cached: the same rerank=1 request with
		// a comfortable budget (no deadline) gets the exact answer.
		srv.rerankNanosPerCand.Store(0)
		code, body = get(t, ts.URL+"/v1/topk?q=3&k=8&rerank=1")
		if code != http.StatusOK {
			t.Fatalf("exact follow-up: status %d", code)
		}
		var exact topKResponse
		if err := json.Unmarshal(body, &exact); err != nil {
			t.Fatal(err)
		}
		if !exact.Reranked || exact.Degraded {
			t.Fatalf("follow-up served flags reranked=%t degraded=%t — a degraded body leaked into the cache", exact.Reranked, exact.Degraded)
		}
	})
}

// TestDegradedBatch: a topk batch under a starved deadline degrades
// per-chunk, marks the response, and keeps the degraded lines out of the
// cache shared with /v1/topk.
func TestDegradedBatch(t *testing.T) {
	forEachBackend(t, func(t *testing.T, kind string) {
		srv := smallBackend(t, kind, Config{Workers: 1})
		ts := httptest.NewServer(srv)
		defer ts.Close()

		srv.rerankNanosPerCand.Store(uint64(time.Second))
		resp, err := http.Post(ts.URL+"/v1/batch?timeout_ms=1000", "application/json",
			strings.NewReader(`{"mode":"topk","sources":[1,2,3],"k":5,"rerank":true}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: status %d (body %s)", resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Simrank-Degraded"); got != "true" {
			t.Errorf("X-Simrank-Degraded = %q, want \"true\"", got)
		}
		lines := strings.Split(strings.TrimSpace(string(body)), "\n")
		if len(lines) != 3 {
			t.Fatalf("batch returned %d lines, want 3", len(lines))
		}
		for _, line := range lines {
			var item topKResponse
			if err := json.Unmarshal([]byte(line), &item); err != nil {
				t.Fatal(err)
			}
			if !item.Degraded || item.Reranked {
				t.Fatalf("batch line %s: want degraded estimates", line)
			}
		}

		// The rerank=1 cache keys must not have been filled with degraded
		// bodies: an exact single query afterwards reranks for real.
		srv.rerankNanosPerCand.Store(0)
		code, sbody := get(t, ts.URL+"/v1/topk?q=1&k=5&rerank=1")
		if code != http.StatusOK {
			t.Fatalf("follow-up: status %d", code)
		}
		var exact topKResponse
		if err := json.Unmarshal(sbody, &exact); err != nil {
			t.Fatal(err)
		}
		if !exact.Reranked || exact.Degraded {
			t.Fatalf("follow-up flags reranked=%t degraded=%t — degraded batch line leaked into the cache", exact.Reranked, exact.Degraded)
		}
	})
}

// TestClientDisconnectCancelsPromptly: when the client goes away
// mid-request, the handler's context cancels and the request finishes
// promptly instead of computing an answer nobody will read.
func TestClientDisconnectCancelsPromptly(t *testing.T) {
	forEachBackend(t, func(t *testing.T, kind string) {
		srv := smallBackend(t, kind, Config{CacheSize: -1, Workers: 1, MaxInflight: 1})
		entered := make(chan struct{}, 1)
		srv.testHookInflight = func(*http.Request) {
			select {
			case entered <- struct{}{}:
			default:
			}
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()

		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/single_source?q=1", nil)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			done <- err
		}()
		<-entered
		cancel()
		if err := <-done; err == nil {
			t.Log("client finished before the cancel landed; still checking server drain")
		}
		// The handler must release its slot promptly — the canceled context
		// aborts the sweep at a chunk boundary.
		waitFor(t, "handler to finish after disconnect", func() bool { return srv.inflight.Load() == 0 })
	})
}

// TestBatchStreamTerminalLineOnCancel: an NDJSON stream whose context
// dies mid-stream (graceful-shutdown drain expiry cancelling in-flight
// requests) ends with a single terminal error line marked truncated, so
// clients cannot mistake the cut stream for a complete one.
func TestBatchStreamTerminalLineOnCancel(t *testing.T) {
	forEachBackend(t, func(t *testing.T, kind string) {
		srv := smallBackend(t, kind, Config{CacheSize: -1, Workers: 1})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		srv.testHookBatchLine = func(line int) {
			if line == 0 {
				cancel() // the drain deadline fires between lines 0 and 1
			}
		}

		req := httptest.NewRequest(http.MethodPost, "/v1/batch",
			strings.NewReader(`{"mode":"topk","sources":[1,2,3,4],"k":3}`))
		req = req.WithContext(ctx)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)

		if rec.Code != http.StatusOK {
			t.Fatalf("batch: status %d", rec.Code)
		}
		lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
		if len(lines) != 2 {
			t.Fatalf("stream has %d lines, want line 0 plus the terminal error:\n%s", len(lines), rec.Body.String())
		}
		var first topKResponse
		if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
			t.Fatalf("line 0 not a topk response: %v", err)
		}
		var term batchTerminal
		if err := json.Unmarshal([]byte(lines[1]), &term); err != nil {
			t.Fatalf("terminal line not parseable: %v", err)
		}
		if !term.Truncated || !strings.Contains(term.Error, "truncated") {
			t.Fatalf("terminal line = %+v, want truncated error", term)
		}
	})
}

// TestConcurrentQueriesEditsAndLimiterChurn mixes concurrent queries,
// graph edits, and limiter churn (shed and queued requests) — the test
// the race detector watches in CI's serve-hardening job.
func TestConcurrentQueriesEditsAndLimiterChurn(t *testing.T) {
	forEachBackend(t, func(t *testing.T, kind string) {
		srv := newBackend(t, kind, gen.WebGraph(100, 6, 77), query.Options{Walks: 40, Seed: 9},
			Config{CacheSize: 64, Workers: 2, MaxInflight: 2, QueueDepth: 2, RequestTimeout: 2 * time.Second})
		ts := httptest.NewServer(srv)
		defer ts.Close()

		var wg sync.WaitGroup
		fail := make(chan string, 64)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					var resp *http.Response
					var err error
					switch i % 3 {
					case 0:
						resp, err = http.Get(fmt.Sprintf("%s/v1/topk?q=%d&k=5", ts.URL, (w*31+i)%100))
					case 1:
						resp, err = http.Get(fmt.Sprintf("%s/v1/single_source?q=%d&min=0.01", ts.URL, (w*17+i)%100))
					case 2:
						resp, err = http.Post(ts.URL+"/v1/batch", "application/json",
							strings.NewReader(fmt.Sprintf(`{"mode":"topk","sources":[%d,%d],"k":4}`, i%100, (i+w)%100)))
					}
					if err != nil {
						fail <- err.Error()
						return
					}
					io.Copy(io.Discard, resp.Body)
					code := resp.StatusCode
					resp.Body.Close()
					// Overload answers (429, 503) are correct behavior here;
					// anything else non-200 is a bug.
					if code != http.StatusOK && code != http.StatusTooManyRequests && code != http.StatusServiceUnavailable {
						fail <- fmt.Sprintf("worker %d request %d: status %d", w, i, code)
						return
					}
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				op := "add"
				if i%2 == 1 {
					op = "remove"
				}
				body := fmt.Sprintf(`{"edits":[{"op":%q,"u":%d,"v":%d}]}`, op, i%100, (i*7+1)%100)
				resp, err := http.Post(ts.URL+"/v1/edges", "application/json", strings.NewReader(body))
				if err != nil {
					fail <- err.Error()
					return
				}
				io.Copy(io.Discard, resp.Body)
				code := resp.StatusCode
				resp.Body.Close()
				if code != http.StatusOK && code != http.StatusTooManyRequests && code != http.StatusServiceUnavailable {
					fail <- fmt.Sprintf("edit %d: status %d", i, code)
					return
				}
			}
		}()
		wg.Wait()
		close(fail)
		for msg := range fail {
			t.Error(msg)
		}

		// The server must end quiescent: no slot leaked by any path.
		if got := srv.inflight.Load(); got != 0 {
			t.Errorf("inflight = %d after all requests finished, want 0", got)
		}
		if got := srv.queued.Load(); got != 0 {
			t.Errorf("queued = %d after all requests finished, want 0", got)
		}
	})
}

// TestEditsAreLimited: /v1/edges runs behind the same limiter as queries,
// so a flood of edits cannot bypass admission control.
func TestEditsAreLimited(t *testing.T) {
	forEachBackend(t, func(t *testing.T, kind string) {
		srv := smallBackend(t, kind, Config{CacheSize: -1, Workers: 1, MaxInflight: 1, QueueDepth: -1})
		entered := make(chan struct{}, 1)
		gate := make(chan struct{})
		srv.testHookInflight = func(*http.Request) {
			select {
			case entered <- struct{}{}:
				<-gate
			default:
			}
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()

		go http.Get(ts.URL + "/v1/topk?q=1&k=3") // holds the slot
		<-entered
		code, _ := postJSON(t, ts.URL+"/v1/edges", `{"edits":[{"op":"add","u":0,"v":1}]}`)
		close(gate)
		if code != http.StatusTooManyRequests {
			t.Fatalf("edit under saturation: status %d, want 429", code)
		}
	})
}
