package simrankd

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/internal/sparserow"
	"oipsr/simrank/query"
	"oipsr/simrank/shard"
)

// flakyBackend fronts one shard backend and can be switched into a
// failure mode for the shard data plane (/shard/* and /v1/edges).
// /healthz and /metrics pass through so NewRouter's probe and scrapes keep
// working while the data plane is down — except in mode "dead", which
// answers 503 on everything.
type flakyBackend struct {
	mode atomic.Value // "" | "503" | "dead" | "429" | "hang" | "shortrow" | "bigcount" | "longbody"
	next http.Handler
	stop chan struct{} // closed at test end so hung handlers release
}

func (f *flakyBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	dataPlane := strings.HasPrefix(r.URL.Path, "/shard/") || r.URL.Path == "/v1/edges"
	if mode, _ := f.mode.Load().(string); (dataPlane || mode == "dead") && mode != "" {
		if forge := forgedCounts[mode]; forge != nil && r.URL.Path == "/shard/v1/scores" {
			f.serveForgedCount(w, r, forge)
			return
		}
		switch mode {
		case "503", "dead", "shortrow", "bigcount":
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"simrankd: injected outage"}` + "\n"))
		case "429":
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"simrankd: injected overload"}` + "\n"))
		case "longbody":
			// A 200 far longer than any answer: the reader stops at its cap
			// with most of the body unread.
			w.Write(bytes.Repeat([]byte{'x'}, 64<<10))
		case "hang":
			select {
			case <-r.Context().Done():
			case <-f.stop:
			case <-time.After(30 * time.Second):
			}
		}
		return
	}
	f.next.ServeHTTP(w, r)
}

// forgedCounts are the modes that answer a scores request with the
// backend's real leg, the count of its last row rewritten: a leg whose
// header and earlier rows look fine and whose defect only shows at the end.
// "shortrow" leaves the row one entry short of its count; "bigcount" claims
// what no body could hold, the header field a parser must not size by.
var forgedCounts = map[string]func(c uint64) uint64{
	"shortrow": func(c uint64) uint64 { return c + 1 },
	"bigcount": func(uint64) uint64 { return 1 << 40 },
}

func (f *flakyBackend) serveForgedCount(w http.ResponseWriter, r *http.Request, forge func(uint64) uint64) {
	rec := httptest.NewRecorder()
	f.next.ServeHTTP(rec, r)
	body, err := forgeLastCount(rec.Body.Bytes(), forge)
	if err != nil {
		http.Error(w, "forged count: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(body)
}

// forgeLastCount rewrites the entry count of the last row of a leg body.
func forgeLastCount(body []byte, forge func(uint64) uint64) ([]byte, error) {
	var leg legRows
	lo, hi, gen, err := leg.decode(body)
	if err != nil {
		return nil, err
	}
	if len(leg.ends) == 0 {
		return nil, errors.New("leg has no rows")
	}
	// The encoding is canonical, so the last row's bytes are what it encodes
	// to alone, less the header (whose row count is one byte either way).
	last := leg.row(len(leg.ends) - 1)
	at := len(body) - (len(appendLeg(nil, lo, hi, gen, []*sparserow.Row{&last})) - len(appendLeg(nil, lo, hi, gen, nil)))
	count := uint64(last.Len())
	out := append([]byte(nil), body[:at]...)
	out = binary.AppendUvarint(out, forge(count))
	return append(out, body[at+len(binary.AppendUvarint(nil, count)):]...), nil
}

// routerFleet is a single-node server and an equivalent sharded
// deployment (router + per-range backends) built over the same graph.
type routerFleet struct {
	single *httptest.Server
	router *httptest.Server
	rt     *Server
	flaky  []*flakyBackend
	n      int
}

// fleet returns the row source under the router.
func (fl *routerFleet) fleet() *fleetSource { return fl.rt.src.(*fleetSource) }

func newRouterFleet(t *testing.T, nShards int, cfg Config, shardTimeout time.Duration) *routerFleet {
	t.Helper()
	return newRouterFleetOn(t, gen.WebGraph(120, 7, 101), nShards, cfg, shardTimeout)
}

// newRouterFleetOn is newRouterFleet over the graph g.
func newRouterFleetOn(t *testing.T, g *graph.Graph, nShards int, cfg Config, shardTimeout time.Duration) *routerFleet {
	t.Helper()
	opt := query.Options{Walks: 400, Seed: 7, Workers: 1}
	idx, err := query.BuildIndex(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	single := httptest.NewServer(NewServer(idx, cfg))
	t.Cleanup(single.Close)

	ranges, err := shard.Plan(g.NumVertices(), nShards)
	if err != nil {
		t.Fatal(err)
	}
	fleet := &routerFleet{single: single, n: g.NumVertices()}
	urls := make([]string, 0, nShards)
	for _, rg := range ranges {
		sh, err := shard.Build(g, opt, rg.Lo, rg.Hi)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := NewShardServer(sh, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fb := &flakyBackend{next: ss, stop: make(chan struct{})}
		fb.mode.Store("")
		ts := httptest.NewServer(fb)
		t.Cleanup(ts.Close)
		fleet.flaky = append(fleet.flaky, fb)
		urls = append(urls, ts.URL)
	}

	rt, err := NewRouter(g, urls, RouterConfig{Config: cfg, ShardTimeout: shardTimeout})
	if err != nil {
		t.Fatal(err)
	}
	fleet.rt = rt
	fleet.router = httptest.NewServer(rt)
	t.Cleanup(fleet.router.Close)
	// Registered last so it runs first (LIFO): hung backend handlers must
	// release before the httptest servers' Close waits on them.
	t.Cleanup(func() {
		for _, fb := range fleet.flaky {
			close(fb.stop)
		}
	})
	return fleet
}

// identityProbes is the request matrix both deployments must answer
// byte-for-byte identically: every query endpoint, success and error
// shapes, dense and sparse forms, with and without rerank.
type probe struct {
	name, method, path, body string
}

func identityProbes(n int) []probe {
	return []probe{
		{"ss_dense_first", "GET", "/v1/single_source?q=0", ""},
		{"ss_dense_mid", "GET", "/v1/single_source?q=57", ""},
		{"ss_dense_last", "GET", fmt.Sprintf("/v1/single_source?q=%d", n-1), ""},
		{"ss_sparse", "GET", "/v1/single_source?q=5&min=0.001", ""},
		{"ss_neg", "GET", "/v1/single_source?q=-1", ""},
		{"ss_oob", "GET", fmt.Sprintf("/v1/single_source?q=%d", n+100), ""},
		{"ss_badq", "GET", "/v1/single_source?q=zebra", ""},
		{"topk", "GET", "/v1/topk?q=7&k=9", ""},
		{"topk_rerank", "GET", "/v1/topk?q=7&k=9&rerank=1", ""},
		{"topk_k_over_n", "GET", fmt.Sprintf("/v1/topk?q=3&k=%d", n+5), ""},
		{"topk_k_zero", "GET", "/v1/topk?q=42&k=0", ""},
		{"topk_oob", "GET", fmt.Sprintf("/v1/topk?q=%d&k=4", n), ""},
		{"join", "POST", "/v1/join", `{"k":5,"threshold":0.15}`},
		{"join_tight_cap", "POST", "/v1/join", `{"k":3,"threshold":0.1,"max_candidates":2}`},
		// Every pair with a positive estimate, not only the top few.
		{"join_all", "POST", "/v1/join", `{"k":100000,"threshold":0}`},
		{"join_bad_threshold", "POST", "/v1/join", `{"k":5,"threshold":1.5}`},
		{"join_bad_k", "POST", "/v1/join", `{"k":0,"threshold":0.2}`},
		{"batch_topk", "POST", "/v1/batch", fmt.Sprintf(`{"mode":"topk","sources":[3,77,%d,%d],"k":6}`, n-1, n+50)},
		{"batch_topk_rerank", "POST", "/v1/batch", `{"mode":"topk","sources":[11,12],"k":5,"rerank":true}`},
		{"batch_ss_sparse", "POST", "/v1/batch", `{"mode":"single_source","sources":[1,60,110],"min":0.002}`},
		{"batch_bad_mix", "POST", "/v1/batch", `{"mode":"topk","sources":[1],"min":0.5}`},
		{"batch_empty", "POST", "/v1/batch", `{"mode":"topk","sources":[],"k":3}`},
	}
}

func runProbe(t *testing.T, base string, p probe) (int, []byte) {
	t.Helper()
	if p.method == "GET" {
		return get(t, base+p.path)
	}
	return postJSON(t, base+p.path, p.body)
}

func checkIdentity(t *testing.T, fl *routerFleet, phase string) {
	t.Helper()
	for _, p := range identityProbes(fl.n) {
		cs, bs := runProbe(t, fl.single.URL, p)
		cr, br := runProbe(t, fl.router.URL, p)
		if cs != cr {
			t.Errorf("%s/%s: status single=%d router=%d (router body %q)", phase, p.name, cs, cr, br)
			continue
		}
		if !bytes.Equal(bs, br) {
			t.Errorf("%s/%s: bodies differ\nsingle: %s\nrouter: %s", phase, p.name, bs, br)
		}
	}
}

// TestRouterByteIdenticalToSingleNode is the PR's acceptance test: a
// 3-shard router must answer every query endpoint byte-for-byte like
// the single-node server — before and after live /v1/edges applied to
// both deployments.
func TestRouterByteIdenticalToSingleNode(t *testing.T) {
	fl := newRouterFleet(t, 3, Config{Workers: 1}, 0)
	checkIdentity(t, fl, "initial")

	// Edits spanning all three vertex ranges: adds and removals.
	edits := `{"edits":[` +
		`{"op":"add","u":2,"v":115},{"op":"add","u":55,"v":3},` +
		`{"op":"add","u":118,"v":40},{"op":"remove","u":1,"v":0},` +
		`{"op":"add","u":7,"v":7}]}`
	cs, bs := postJSON(t, fl.single.URL+"/v1/edges", edits)
	cr, br := postJSON(t, fl.router.URL+"/v1/edges", edits)
	if cs != http.StatusOK || cr != http.StatusOK {
		t.Fatalf("edits: single=%d %s router=%d %s", cs, bs, cr, br)
	}
	var es, er edgesResponse
	if err := json.Unmarshal(bs, &es); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(br, &er); err != nil {
		t.Fatal(err)
	}
	if es.Added != er.Added || es.Removed != er.Removed || es.Edges != er.Edges {
		t.Fatalf("edit summaries diverge: single=%+v router=%+v", es, er)
	}
	if es.WalksRepaired != er.WalksRepaired {
		t.Fatalf("walks repaired diverge: single=%d router=%d", es.WalksRepaired, er.WalksRepaired)
	}
	// What the router's /v1/edges body reported is also what its /metrics
	// accumulates — the same three lines, same values, as the single node.
	_, ms := get(t, fl.single.URL+"/metrics")
	_, mr := get(t, fl.router.URL+"/metrics")
	for _, line := range []string{
		fmt.Sprintf("simrankd_update_edges_added_total %d\n", es.Added),
		fmt.Sprintf("simrankd_update_edges_removed_total %d\n", es.Removed),
		fmt.Sprintf("simrankd_update_walks_repaired_total %d\n", es.WalksRepaired),
		"simrankd_updates_total 1\n",
	} {
		if !strings.Contains(string(ms), line) || !strings.Contains(string(mr), line) {
			t.Errorf("after one batch both /metrics must carry %q", line)
		}
	}
	checkIdentity(t, fl, "after-edits")

	// A second round proves generations keep advancing in lockstep.
	edits2 := `{"edits":[{"op":"remove","u":2,"v":115},{"op":"add","u":0,"v":119}]}`
	if c, b := postJSON(t, fl.single.URL+"/v1/edges", edits2); c != http.StatusOK {
		t.Fatalf("single edits2: %d %s", c, b)
	}
	if c, b := postJSON(t, fl.router.URL+"/v1/edges", edits2); c != http.StatusOK {
		t.Fatalf("router edits2: %d %s", c, b)
	}
	checkIdentity(t, fl, "after-edits-2")
}

// TestRouterJoinWalksToTheHorizon: on the web graphs of the other router
// tests every walk dies within five steps, so nothing there depends on the
// horizon the router's join walks to. On a co-authorship graph, whose
// edges run both ways, walks live to K: every pair with a positive
// estimate, last-step meetings included, must be the single node's, at 1
// and 3 shards.
func TestRouterJoinWalksToTheHorizon(t *testing.T) {
	g := gen.CoauthorGraph(120, 4, 7)
	for _, shards := range []int{1, 3} {
		fl := newRouterFleetOn(t, g, shards, Config{Workers: 2}, 0)
		for _, body := range []string{`{"k":100000,"threshold":0}`, `{"k":30,"threshold":0.05}`} {
			cs, bs := postJSON(t, fl.single.URL+"/v1/join", body)
			cr, br := postJSON(t, fl.router.URL+"/v1/join", body)
			if cs != http.StatusOK || cr != cs || !bytes.Equal(bs, br) {
				t.Fatalf("%d shards, join %s: router %d %.300s\nsingle %d %.300s", shards, body, cr, br, cs, bs)
			}
		}
	}
}

// TestRouterRerankReachesTheHorizon: a Y of two in-chains that meet on
// one root exactly K steps up — the walks from the two tips, a and b, are
// the only ones that ever stand on one vertex together, and first at step
// K — so s(a, b) is C^K, in the walk estimate and in the exact recursion
// cut at K alike, and a horizon one short scores the pair 0. A reranked
// top-k of a through a two-shard router must list b at C^K, the single
// node's answer byte for byte.
func TestRouterRerankReachesTheHorizon(t *testing.T) {
	const horizon, c = 13, 0.6 // the index default at C = 0.6
	n := 2*horizon + 1
	a, b, root := 0, n-1, horizon
	var edges [][2]int
	for i := 1; i < horizon; i++ { // a's in-chain a+1, …, a+K-1, b's b-1, …
		edges = append(edges, [2]int{a + i, a + i - 1}, [2]int{b - i, b - i + 1})
	}
	edges = append(edges, [2]int{root, a + horizon - 1}, [2]int{root, b - horizon + 1})
	fl := newRouterFleetOn(t, graph.MustFromEdges(n, edges), 2, Config{Workers: 1}, 0)
	if got := fl.fleet().horizon; got != horizon {
		t.Fatalf("the fleet walks to %d steps, the graph is built for %d", got, horizon)
	}
	url := fmt.Sprintf("/v1/topk?q=%d&k=5&rerank=1", a)
	cs, bs := get(t, fl.single.URL+url)
	cr, br := get(t, fl.router.URL+url)
	if cs != http.StatusOK || cr != cs || !bytes.Equal(bs, br) {
		t.Fatalf("reranked top-k: router %d %s\nsingle %d %s", cr, br, cs, bs)
	}
	var resp topKResponse
	if err := json.Unmarshal(br, &resp); err != nil {
		t.Fatal(err)
	}
	want := 1.0
	for range horizon {
		want *= c
	}
	if !resp.Reranked || len(resp.Results) == 0 || resp.Results[0].Vertex != b || math.Abs(resp.Results[0].Score-want) > 1e-15 {
		t.Fatalf("reranked top-k of the tip %d: %s, want %d first at C^K = %g", a, br, b, want)
	}
	for _, r := range resp.Results[1:] {
		if r.Score != 0 {
			t.Fatalf("reranked top-k of the tip %d: %s, want every vertex but %d at 0", a, br, b)
		}
	}
}

// TestRouterPartialFailureDegrades: with one shard down the router must
// keep answering 200, mark the response degraded (body field + header),
// keep live ranges bit-correct, zero the missing range, and never cache
// a degraded answer. "shortrow" and "bigcount" are the legs that fail
// validation late: their last row's count is a lie, and none of their
// earlier rows may have reached the merge. A join asks no shard anything,
// so it is the single node's answer, complete and not marked.
func TestRouterPartialFailureDegrades(t *testing.T) {
	for _, mode := range []string{"503", "429", "hang", "shortrow", "bigcount", "longbody"} {
		t.Run(mode, func(t *testing.T) {
			fl := newRouterFleet(t, 3, Config{Workers: 1}, 300*time.Millisecond)

			// Reference answers while healthy.
			_, fullDense := get(t, fl.single.URL+"/v1/single_source?q=9")
			_, fullSparse := get(t, fl.single.URL+"/v1/single_source?q=9&min=0.001")

			fl.flaky[1].mode.Store(mode)

			code, body := get(t, fl.router.URL+"/v1/single_source?q=9")
			if code != http.StatusOK {
				t.Fatalf("degraded dense: %d %s", code, body)
			}
			var deg, full singleSourceResponse
			if err := json.Unmarshal(body, &deg); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(fullDense, &full); err != nil {
				t.Fatal(err)
			}
			if !deg.Degraded {
				t.Fatalf("degraded flag missing: %s", body)
			}
			lo, hi := fl.fleet().ranges[1].Lo, fl.fleet().ranges[1].Hi
			for v := range deg.Scores {
				switch {
				case v >= lo && v < hi:
					if v != 9 && deg.Scores[v] != 0 {
						t.Fatalf("vertex %d in dead range scored %v", v, deg.Scores[v])
					}
				default:
					if deg.Scores[v] != full.Scores[v] {
						t.Fatalf("vertex %d: degraded %v != full %v", v, deg.Scores[v], full.Scores[v])
					}
				}
			}

			// The zeros-for-the-missing-range contract holds for every row
			// of a chunk, not only the one whose defect failed the leg.
			code, body = postJSON(t, fl.router.URL+"/v1/batch", `{"mode":"single_source","sources":[9,10,11]}`)
			if code != http.StatusOK {
				t.Fatalf("degraded dense batch: %d %s", code, body)
			}
			for i, line := range ndjsonLines(t, body) {
				var item singleSourceResponse
				if err := json.Unmarshal(line, &item); err != nil {
					t.Fatal(err)
				}
				if !item.Degraded {
					t.Fatalf("batch line %d not marked degraded: %s", i, line)
				}
				for v := lo; v < hi; v++ {
					if v != item.Query && item.Scores[v] != 0 {
						t.Fatalf("batch line %d: vertex %d in dead range scored %v", i, v, item.Scores[v])
					}
				}
			}

			// Header marker on a degraded answer.
			resp, err := http.Get(fl.router.URL + "/v1/single_source?q=9")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.Header.Get("X-Simrank-Degraded") == "" {
				t.Fatal("X-Simrank-Degraded header missing on degraded response")
			}

			// A cacheable (sparse) query answered degraded must NOT poison
			// the cache: after recovery the same URL returns the full
			// single-node-identical body.
			if c, b := get(t, fl.router.URL+"/v1/single_source?q=9&min=0.001"); c != http.StatusOK {
				t.Fatalf("degraded sparse: %d %s", c, b)
			}
			// top-k degrades rather than fails too.
			if c, b := get(t, fl.router.URL+"/v1/topk?q=4&k=5&rerank=1"); c != http.StatusOK {
				t.Fatalf("degraded topk: %d %s", c, b)
			} else {
				var tk topKResponse
				if err := json.Unmarshal(b, &tk); err != nil {
					t.Fatal(err)
				}
				if !tk.Degraded {
					t.Fatalf("topk not marked degraded: %s", b)
				}
				if tk.Reranked {
					t.Fatalf("degraded topk must not claim rerank: %s", b)
				}
			}
			join := `{"k":4,"threshold":0.15}`
			_, fullJoin := postJSON(t, fl.single.URL+"/v1/join", join)
			resp, err = http.Post(fl.router.URL+"/v1/join", "application/json", strings.NewReader(join))
			if err != nil {
				t.Fatal(err)
			}
			joinBody, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK || !bytes.Equal(joinBody, fullJoin) {
				t.Fatalf("join with a shard down: %d %s, want the single node's %s", resp.StatusCode, joinBody, fullJoin)
			}
			if resp.Header.Get("X-Simrank-Degraded") != "" {
				t.Fatal("join with a shard down carries X-Simrank-Degraded")
			}
			// Batch lines carry the degraded marker as well.
			if c, b := postJSON(t, fl.router.URL+"/v1/batch",
				`{"mode":"single_source","sources":[9],"min":0.001}`); c != http.StatusOK {
				t.Fatalf("degraded batch: %d %s", c, b)
			} else if !strings.Contains(string(b), `"degraded":true`) {
				t.Fatalf("batch line not marked degraded: %s", b)
			}

			fl.flaky[1].mode.Store("")

			c, b := get(t, fl.router.URL+"/v1/single_source?q=9&min=0.001")
			if c != http.StatusOK {
				t.Fatalf("recovered sparse: %d %s", c, b)
			}
			if !bytes.Equal(b, fullSparse) {
				t.Fatalf("cache poisoned: recovered body %s != single-node %s", b, fullSparse)
			}
			if got := fl.fleet().shardErrors.Load(); got == 0 {
				t.Fatal("shardErrors counter never incremented")
			}
		})
	}
}

// TestRouterEdgesPartialBroadcastConverges: a broadcast that reaches
// only part of the fleet returns 502, leaves the stale shard flagged
// (every answer degraded), and retrying the same idempotent batch
// converges back to byte-identity with the single-node server.
func TestRouterEdgesPartialBroadcastConverges(t *testing.T) {
	fl := newRouterFleet(t, 3, Config{Workers: 1}, 300*time.Millisecond)

	edits := `{"edits":[{"op":"add","u":2,"v":115},{"op":"remove","u":1,"v":0},{"op":"add","u":80,"v":5}]}`
	if c, b := postJSON(t, fl.single.URL+"/v1/edges", edits); c != http.StatusOK {
		t.Fatalf("single edits: %d %s", c, b)
	}

	fl.flaky[1].mode.Store("503")
	code, body := postJSON(t, fl.router.URL+"/v1/edges", edits)
	if code != http.StatusBadGateway {
		t.Fatalf("partial broadcast: want 502, got %d %s", code, body)
	}
	if !strings.Contains(string(body), "retry the same batch") {
		t.Fatalf("502 body should tell the client to retry: %s", body)
	}

	// The divergent fleet must not pretend to be consistent: shard 1 is
	// one generation behind, so answers touching it are degraded.
	if c, b := get(t, fl.router.URL+"/v1/single_source?q=9"); c != http.StatusOK {
		t.Fatalf("query during divergence: %d %s", c, b)
	} else if !strings.Contains(string(b), `"degraded":true`) {
		t.Fatalf("divergent fleet answered without degraded marker: %s", b)
	}

	fl.flaky[1].mode.Store("")
	code, body = postJSON(t, fl.router.URL+"/v1/edges", edits)
	if code != http.StatusOK {
		t.Fatalf("retry: want 200, got %d %s", code, body)
	}
	checkIdentity(t, fl, "after-converge")
}

// TestRouterRejectsInconsistentFleet: NewRouter must refuse a backend
// set that does not tile [0, n) exactly.
func TestRouterRejectsInconsistentFleet(t *testing.T) {
	g := gen.WebGraph(60, 5, 11)
	opt := query.Options{Walks: 64, Seed: 3, Workers: 1}
	ranges, err := shard.Plan(g.NumVertices(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Only bring up the second shard: the partition has a hole at the front.
	sh, err := shard.Build(g, opt, ranges[1].Lo, ranges[1].Hi)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewShardServer(sh, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(ss)
	defer ts.Close()
	if _, err := NewRouter(g, []string{ts.URL}, RouterConfig{Config: Config{Workers: 1}}); err == nil {
		t.Fatal("NewRouter accepted a fleet that does not cover [0, n)")
	}
}

// TestRouterProbeNamesBackendStatus: a backend that answers its /healthz
// probe with an error is refused for that — by URL, status and the
// backend's own words — not for the zero range its error body decodes to.
func TestRouterProbeNamesBackendStatus(t *testing.T) {
	g := gen.WebGraph(60, 5, 11)
	opt := query.Options{Walks: 64, Seed: 3, Workers: 1}
	ranges, err := shard.Plan(g.NumVertices(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for dead := range ranges {
		var urls []string
		for i, rg := range ranges {
			sh, err := shard.Build(g, opt, rg.Lo, rg.Hi)
			if err != nil {
				t.Fatal(err)
			}
			ss, err := NewShardServer(sh, Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			fb := &flakyBackend{next: ss}
			fb.mode.Store("")
			if i == dead {
				fb.mode.Store("dead")
			}
			ts := httptest.NewServer(fb)
			defer ts.Close()
			urls = append(urls, ts.URL)
		}
		_, err := NewRouter(g, urls, RouterConfig{Config: Config{Workers: 1}})
		if err == nil {
			t.Fatalf("backend %d dead: NewRouter accepted the fleet", dead)
		}
		for _, want := range []string{urls[dead], "503", "injected outage"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("backend %d dead: error %q does not mention %q", dead, err, want)
			}
		}
	}
}

// TestFleetReusesShardConnections: every admitted request scatters one leg
// per backend at once, so under c concurrent clients a backend serves c legs
// at a time — and with http.DefaultTransport's two idle connections per host
// all but two of those were closed after each burst and dialled again for
// the next (325 new connections per 1000 legs under 8 clients, measured).
// The fleet's own transport keeps maxInflight idle per backend and every leg
// is read to its end before its connection is handed back — a refused or
// malformed one too: a backend sees at most maxInflight connections ever,
// whatever its legs answer.
func TestFleetReusesShardConnections(t *testing.T) {
	const clients, maxInflight = 8, 16
	g := gen.WebGraph(120, 7, 101)
	opt := query.Options{Walks: 40, Seed: 7, Workers: 1}
	ranges, err := shard.Plan(g.NumVertices(), 2)
	if err != nil {
		t.Fatal(err)
	}
	newConns := make([]atomic.Int64, len(ranges))
	var urls []string
	var flaky []*flakyBackend
	for i, rg := range ranges {
		sh, err := shard.Build(g, opt, rg.Lo, rg.Hi)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := NewShardServer(sh, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		fb := &flakyBackend{next: ss}
		fb.mode.Store("")
		flaky = append(flaky, fb)
		ts := httptest.NewUnstartedServer(fb)
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				newConns[i].Add(1)
			}
		}
		ts.Start()
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	rt, err := NewRouter(g, urls, RouterConfig{Config: Config{Workers: 1, CacheSize: -1, MaxInflight: maxInflight}})
	if err != nil {
		t.Fatal(err)
	}
	burst := func() {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					rec := httptest.NewRecorder()
					rt.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/v1/topk?q=%d&k=5", (c*40+i)%g.NumVertices()), nil))
					if rec.Code != http.StatusOK {
						t.Errorf("status %d: %s", rec.Code, rec.Body)
						return
					}
				}
			}(c)
		}
		wg.Wait()
	}
	burst()
	warm := make([]int64, len(newConns))
	for i := range newConns {
		warm[i] = newConns[i].Load()
		if warm[i] > maxInflight {
			t.Errorf("backend %d: %d connections opened under %d clients, the idle pool holds %d", i, warm[i], clients, maxInflight)
		}
	}
	for _, mode := range []string{"", "shortrow", "503", "longbody"} {
		flaky[1].mode.Store(mode) // the answers degrade; the connections must not
		burst()
		// Bounded, not "none since the first burst": that burst may peak at
		// seven legs in flight and a later one at eight, and a leg issued
		// before the previous connection is back in the pool dials too (seen
		// under GOMAXPROCS=8 on a loaded machine). Connections dropped after
		// a bad leg would be a hundred new ones per burst.
		for i := range newConns {
			if now := newConns[i].Load(); now > maxInflight {
				t.Errorf("backend %d: %d connections opened by the time legs are in mode %q (%d after the first burst), the idle pool holds %d", i, now, mode, warm[i], maxInflight)
			}
		}
	}
}

// TestScoreLegCounters: the router counts the bytes and rows it read from
// healthy score legs, each shard the non-zero entries it sent — and for one
// dense single_source the entries the shards sent are exactly the non-zero
// scores the client received.
func TestScoreLegCounters(t *testing.T) {
	fl := newRouterFleet(t, 3, Config{Workers: 1, CacheSize: -1}, 0)
	code, body := get(t, fl.router.URL+"/v1/single_source?q=9")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp singleSourceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	nonzero := int64(0)
	for _, s := range resp.Scores {
		if s != 0 {
			nonzero++
		}
	}
	fleet := fl.fleet()
	if rows, bytes := fleet.legRows.Load(), fleet.legBytes.Load(); rows != 3 || bytes < 3*int64(len(legMagic)+5) {
		t.Fatalf("after one request over 3 shards: %d leg rows, %d leg bytes", rows, bytes)
	}
	_, metrics := get(t, fl.router.URL+"/metrics")
	for _, line := range []string{
		"simrankd_shard_leg_rows_total 3\n",
		fmt.Sprintf("simrankd_shard_leg_bytes_total %d\n", fleet.legBytes.Load()),
	} {
		if !strings.Contains(string(metrics), line) {
			t.Errorf("router /metrics lacks %q", line)
		}
	}
	sent := int64(0)
	for _, fb := range fl.flaky {
		sent += fb.next.(*ShardServer).scoresEntries.Load()
	}
	if sent != nonzero {
		t.Fatalf("shards sent %d entries, the answer has %d non-zero scores", sent, nonzero)
	}

	// A failed leg delivers nothing to count.
	fl.flaky[1].mode.Store("503")
	if code, body := get(t, fl.router.URL+"/v1/single_source?q=9"); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if rows := fleet.legRows.Load(); rows != 5 {
		t.Fatalf("after a request with one dead leg: %d leg rows, want 5", rows)
	}
}
