package simrankd

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"oipsr/graph/gen"
	"oipsr/simrank/query"
	"oipsr/simrank/shard"
)

// recordParent rewrites testdata/parent/ instead of comparing against it.
// The files there are the answers of commit be945ff — the last one where
// Server and Router were two handler stacks — and are only ever recorded
// by checking that commit out, dropping this file into it and running
// `go test ./internal/simrankd -run TestParentGoldens -record-parent`
// (testdata/parent/README.md). This file uses nothing of the package but
// the constructors, Config, the cost-model cells of the embedded serving
// and router_test.go's flakyBackend, so it compiles against both sides of
// the merge.
var recordParent = flag.Bool("record-parent", false, "rewrite testdata/parent/ (run only at the parent commit; see testdata/parent/README.md)")

// goldenProbe is one request of a transcript. before runs first with the
// deployment's /v1 handler — it seeds a cost-model cell or lifts a cap
// through the shared serving fields — and after undoes it.
type goldenProbe struct {
	name, method, path, body string
	before, after            func(sv *serving)
}

// degradeRerank and degradeExact seed the two EWMA cells with an hour, so
// that any request carrying a deadline degrades deterministically.
var (
	degradeRerank = func(sv *serving) { sv.rerankNanosPerCand.Store(uint64(time.Hour)) }
	resetRerank   = func(sv *serving) { sv.rerankNanosPerCand.Store(0) }
	degradeExact  = func(sv *serving) { sv.exactNanos.Store(uint64(time.Hour)) }
	resetExact    = func(sv *serving) { sv.exactNanos.Store(0) }
)

const goldenN = 60

// goldenQueries is the request matrix of one phase: identityProbes (n =
// 60) extended with the linearized engine, degraded answers, every batch
// mode, and every 4xx text the validation tests name.
func goldenQueries() []goldenProbe {
	n := goldenN
	var dense strings.Builder
	dense.WriteString(`{"mode":"single_source","sources":[0`)
	for i := 0; i < maxDenseBatchScores/n+1; i++ {
		dense.WriteString(",0")
	}
	dense.WriteString(`]}`)
	p := func(name, method, path, body string) goldenProbe {
		return goldenProbe{name: name, method: method, path: path, body: body}
	}
	return []goldenProbe{
		// single_source: dense, sparse, spellings of min, errors.
		p("ss_dense_first", "GET", "/v1/single_source?q=0", ""),
		p("ss_dense_mid", "GET", "/v1/single_source?q=27", ""),
		p("ss_dense_last", "GET", fmt.Sprintf("/v1/single_source?q=%d", n-1), ""),
		p("ss_dense_post_form", "POST", "/v1/single_source?q=27", ""),
		p("ss_sparse", "GET", "/v1/single_source?q=5&min=0.001", ""),
		p("ss_sparse_respelled", "GET", "/v1/single_source?q=5&min=1e-3", ""),
		p("ss_sparse_zero", "GET", "/v1/single_source?q=31&min=0", ""),
		p("ss_sparse_high", "GET", "/v1/single_source?q=31&min=0.9", ""),
		p("ss_walk_explicit", "GET", "/v1/single_source?q=5&min=0.001&engine=walk", ""),
		p("ss_missing_q", "GET", "/v1/single_source", ""),
		p("ss_neg", "GET", "/v1/single_source?q=-2", ""),
		p("ss_oob", "GET", fmt.Sprintf("/v1/single_source?q=%d", n+100), ""),
		p("ss_badq", "GET", "/v1/single_source?q=zebra", ""),
		p("ss_badmin", "GET", "/v1/single_source?q=1&min=xyz", ""),
		p("ss_bad_engine", "GET", "/v1/single_source?q=1&engine=bogus", ""),
		p("ss_bad_timeout", "GET", "/v1/single_source?q=1&timeout_ms=abc", ""),
		p("ss_zero_timeout", "GET", "/v1/single_source?q=1&timeout_ms=0", ""),
		p("ss_method", "PUT", "/v1/single_source?q=1", ""),
		// single_source, linearized engine.
		p("lss_dense", "GET", "/v1/single_source?q=4&engine=linearized", ""),
		p("lss_dense_last", "GET", fmt.Sprintf("/v1/single_source?q=%d&engine=linearized", n-1), ""),
		p("lss_sparse", "GET", "/v1/single_source?q=17&min=0.001&engine=linearized", ""),
		p("lss_sparse_again", "GET", "/v1/single_source?q=17&min=0.0010&engine=linearized", ""),
		p("lss_oob", "GET", fmt.Sprintf("/v1/single_source?q=%d&engine=linearized", n), ""),
		{name: "lss_degraded_dense", method: "GET", path: "/v1/single_source?q=4&engine=linearized&timeout_ms=60000", before: degradeExact, after: resetExact},
		{name: "lss_degraded_sparse", method: "GET", path: "/v1/single_source?q=17&min=0.001&engine=linearized&timeout_ms=60000", before: degradeExact, after: resetExact},
		// topk: plain, reranked, clamped, degraded, errors.
		p("topk", "GET", "/v1/topk?q=7&k=9", ""),
		p("topk_default_k", "GET", "/v1/topk?q=7", ""),
		p("topk_post", "POST", "/v1/topk?q=7&k=9", ""),
		p("topk_rerank", "GET", "/v1/topk?q=7&k=9&rerank=1", ""),
		p("topk_rerank_true", "GET", "/v1/topk?q=12&k=4&rerank=true", ""),
		p("topk_k_over_n", "GET", fmt.Sprintf("/v1/topk?q=3&k=%d", n+5), ""),
		p("topk_k_over_n_rerank", "GET", fmt.Sprintf("/v1/topk?q=3&k=%d&rerank=1", n+5), ""),
		{name: "topk_degraded", method: "GET", path: "/v1/topk?q=9&k=6&rerank=1&timeout_ms=60000", before: degradeRerank, after: resetRerank},
		p("topk_after_degraded", "GET", "/v1/topk?q=9&k=6&rerank=1", ""),
		p("topk_missing_q", "GET", "/v1/topk", ""),
		p("topk_badq", "GET", "/v1/topk?q=abc", ""),
		p("topk_badk", "GET", "/v1/topk?q=3&k=many", ""),
		p("topk_k_zero", "GET", "/v1/topk?q=42&k=0", ""),
		p("topk_k_neg", "GET", "/v1/topk?q=42&k=-3", ""),
		p("topk_oob", "GET", fmt.Sprintf("/v1/topk?q=%d&k=4", n), ""),
		p("topk_oob_big", "GET", "/v1/topk?q=99999&k=10", ""),
		p("topk_bad_engine", "GET", "/v1/topk?q=1&k=5&engine=bogus", ""),
		p("topk_method", "DELETE", "/v1/topk?q=1", ""),
		// topk, linearized engine.
		p("etopk", "GET", "/v1/topk?q=11&k=7&engine=linearized", ""),
		p("etopk_k_over_n", "GET", fmt.Sprintf("/v1/topk?q=11&k=%d&engine=linearized", n+1), ""),
		p("etopk_rerank_conflict", "GET", "/v1/topk?q=1&k=5&engine=linearized&rerank=1", ""),
		p("etopk_oob", "GET", fmt.Sprintf("/v1/topk?q=%d&k=3&engine=linearized", n+2), ""),
		{name: "etopk_degraded", method: "GET", path: "/v1/topk?q=11&k=7&engine=linearized&timeout_ms=60000", before: degradeExact, after: resetExact},
		// join.
		p("join", "POST", "/v1/join", `{"k":5,"threshold":0.15}`),
		p("join_respelled", "POST", "/v1/join", `{"k":5,"threshold":1.5e-1}`),
		p("join_default_k", "POST", "/v1/join", `{"threshold":0.2}`),
		p("join_zero_threshold", "POST", "/v1/join", `{"k":4,"threshold":0}`),
		p("join_above_c", "POST", "/v1/join", `{"k":4,"threshold":0.95}`),
		p("join_too_dense", "POST", "/v1/join", `{"k":3,"threshold":0.1,"max_candidates":2}`),
		p("join_bad_threshold", "POST", "/v1/join", `{"k":5,"threshold":1.5}`),
		p("join_neg_k", "POST", "/v1/join", `{"k":-1}`),
		p("join_bad_json", "POST", "/v1/join", `{"k":`),
		p("join_unknown_field", "POST", "/v1/join", `{"k":3,"threshold":0.2,"bogus":1}`),
		p("join_engine", "POST", "/v1/join?engine=linearized", `{"k":3,"threshold":0.2}`),
		p("join_method", "GET", "/v1/join", ""),
		// batch: every mode, per-item errors, duplicates, request errors.
		p("batch_topk", "POST", "/v1/batch", fmt.Sprintf(`{"mode":"topk","sources":[3,47,%d,%d],"k":6}`, n-1, n+50)),
		p("batch_topk_default", "POST", "/v1/batch", `{"sources":[8,9]}`),
		p("batch_topk_rerank", "POST", "/v1/batch", `{"mode":"topk","sources":[11,12],"k":5,"rerank":true}`),
		p("batch_topk_dups", "POST", "/v1/batch", `{"mode":"topk","sources":[21,-1,21,3,21],"k":4}`),
		p("batch_topk_k_over_n", "POST", "/v1/batch", fmt.Sprintf(`{"mode":"topk","sources":[2,40],"k":%d}`, n+9)),
		{name: "batch_topk_degraded", method: "POST", path: "/v1/batch?timeout_ms=60000", body: `{"mode":"topk","sources":[1,2,3],"k":5,"rerank":true}`, before: degradeRerank, after: resetRerank},
		p("batch_topk_after_degraded", "POST", "/v1/batch", `{"mode":"topk","sources":[1,2,3],"k":5,"rerank":true}`),
		p("batch_ss_sparse", "POST", "/v1/batch", `{"mode":"single_source","sources":[1,30,55],"min":0.002}`),
		p("batch_ss_sparse_dups_errors", "POST", "/v1/batch", fmt.Sprintf(`{"mode":"single_source","sources":[5,%d,5,-7],"min":0.001}`, n)),
		p("batch_ss_dense", "POST", "/v1/batch", `{"mode":"single_source","sources":[5,6]}`),
		p("batch_all_invalid", "POST", "/v1/batch", `{"sources":[99999]}`),
		p("batch_empty", "POST", "/v1/batch", `{"mode":"topk","sources":[],"k":3}`),
		p("batch_bad_json", "POST", "/v1/batch", `{"sources":`),
		p("batch_unknown_field", "POST", "/v1/batch", `{"sources":[1],"bogus":true}`),
		p("batch_bad_mode", "POST", "/v1/batch", `{"mode":"pagerank","sources":[1]}`),
		p("batch_min_in_topk", "POST", "/v1/batch", `{"mode":"topk","sources":[1],"min":0.5}`),
		p("batch_k_in_ss", "POST", "/v1/batch", `{"mode":"single_source","sources":[1],"k":5}`),
		p("batch_rerank_in_ss", "POST", "/v1/batch", `{"mode":"single_source","sources":[1],"rerank":true}`),
		p("batch_neg_k", "POST", "/v1/batch", `{"mode":"topk","sources":[1],"k":-2}`),
		p("batch_too_many", "POST", "/v1/batch", `{"sources":[1,2,3,4,5,6,7,8,9]}`),
		{name: "batch_dense_too_big", method: "POST", path: "/v1/batch", body: dense.String(),
			before: func(sv *serving) { sv.maxBatch = maxDenseBatchScores },
			after:  func(sv *serving) { sv.maxBatch = goldenMaxBatch }},
		p("batch_engine", "POST", "/v1/batch?engine=linearized", `{"mode":"topk","sources":[1],"k":3}`),
		p("batch_bad_engine", "POST", "/v1/batch?engine=bogus", `{"mode":"topk","sources":[1],"k":3}`),
		p("batch_method", "GET", "/v1/batch", ""),
		// edges: everything that must be refused without touching the graph.
		p("edges_bad_json", "POST", "/v1/edges", `not json`),
		p("edges_bad_op", "POST", "/v1/edges", `{"edits":[{"op":"frobnicate","u":0,"v":1}]}`),
		p("edges_oob", "POST", "/v1/edges", fmt.Sprintf(`{"edits":[{"op":"add","u":0,"v":%d}]}`, n)),
		p("edges_neg", "POST", "/v1/edges", `{"edits":[{"op":"add","u":-1,"v":0}]}`),
		p("edges_unknown_field", "POST", "/v1/edges", `{"editz":[]}`),
		p("edges_method", "GET", "/v1/edges", ""),
		p("healthz", "GET", "/healthz", ""),
	}
}

const goldenMaxBatch = 8

// goldenEdits is the one effective batch between the two phases (adds and
// removals across every range of a 3-way split, a duplicate, a self-loop),
// followed by a batch that changes nothing.
var goldenEdits = []goldenProbe{
	{name: "edges_apply", method: "POST", path: "/v1/edges", body: `{"edits":[` +
		`{"op":"add","u":2,"v":55},{"op":"add","u":25,"v":3},{"op":"add","u":58,"v":20},` +
		`{"op":"remove","u":1,"v":0},{"op":"add","u":2,"v":55},{"op":"add","u":7,"v":7}]}`},
	{name: "edges_noop", method: "POST", path: "/v1/edges", body: `{"edits":[{"op":"add","u":2,"v":55},{"op":"remove","u":59,"v":59}]}`},
}

// goldenDownProbes run while the middle backend of a fleet answers 503 on
// its data plane (flakyBackend, router_test.go): the merged answers must carry zeros for its range and
// the degraded marks, and nothing of them may be cached.
var goldenDownProbes = []goldenProbe{
	{name: "down_ss_dense", method: "GET", path: "/v1/single_source?q=9"},
	{name: "down_ss_sparse", method: "GET", path: "/v1/single_source?q=9&min=0.001"},
	{name: "down_topk_rerank", method: "GET", path: "/v1/topk?q=4&k=5&rerank=1"},
	{name: "down_etopk", method: "GET", path: "/v1/topk?q=4&k=5&engine=linearized"},
	{name: "down_batch_ss", method: "POST", path: "/v1/batch", body: `{"mode":"single_source","sources":[9,10],"min":0.001}`},
	{name: "down_batch_topk", method: "POST", path: "/v1/batch", body: `{"mode":"topk","sources":[4,9],"k":3,"rerank":true}`},
	{name: "down_join", method: "POST", path: "/v1/join", body: `{"k":4,"threshold":0.15}`},
}

var goldenRecoveredProbes = []goldenProbe{
	{name: "recovered_ss_sparse", method: "GET", path: "/v1/single_source?q=9&min=0.001"},
	{name: "recovered_topk_rerank", method: "GET", path: "/v1/topk?q=4&k=5&rerank=1"},
	{name: "recovered_join", method: "POST", path: "/v1/join", body: `{"k":4,"threshold":0.15}`},
}

var (
	maskMicros = regexp.MustCompile(`"update_micros":\d+`)
	maskUptime = regexp.MustCompile(`"uptime_seconds":[0-9.e+-]+`)
	// index_bytes of a dense backend measured 4·n·R·K at the parent; it is
	// the resident store's ragged layout now, a function of how many walks
	// live how long. It is dropped from both sides before comparing (for a
	// shard opened mapped see maskMappedBacking).
	dropDenseBytes = regexp.MustCompile(`"index_bytes":\d+,("index_forest_bytes":\d+,"backend":"dense")`)
)

// transcribe runs the probes against h in order and appends one record
// per probe: the request line, then status, the headers a client acts on,
// and the body.
func transcribe(t *testing.T, out *bytes.Buffer, h http.Handler, sv *serving, phase string, probes []goldenProbe) {
	t.Helper()
	for _, p := range probes {
		if p.before != nil {
			p.before(sv)
		}
		var body io.Reader
		if p.body != "" {
			body = strings.NewReader(p.body)
		}
		req := httptest.NewRequest(p.method, p.path, body)
		if p.body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if p.after != nil {
			p.after(sv)
		}
		fmt.Fprintf(out, "== %s/%s: %s %s\n-- %d", phase, p.name, p.method, p.path, rec.Code)
		for _, hdr := range []string{"Content-Type", "X-Simrank-Degraded", "Retry-After", "Allow"} {
			if v := rec.Header().Get(hdr); v != "" {
				fmt.Fprintf(out, " %s=%q", hdr, v)
			}
		}
		out.WriteByte('\n')
		b := rec.Body.Bytes()
		if rec.Header().Get("Content-Type") == "application/octet-stream" {
			b = []byte(hex.EncodeToString(b) + "\n") // a score leg (legwire.go)
		}
		b = maskMicros.ReplaceAll(b, []byte(`"update_micros":0`))
		b = maskUptime.ReplaceAll(b, []byte(`"uptime_seconds":0`))
		b = dropDenseBytes.ReplaceAll(b, []byte("$1"))
		out.Write(b)
		if len(b) == 0 || b[len(b)-1] != '\n' {
			out.WriteString("\n(no trailing newline)\n")
		}
	}
}

// checkGolden compares got with testdata/parent/name, or rewrites the
// file under -record-parent.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	checkGoldenAgainst(t, name, got, nil)
}

// checkGoldenAgainst is checkGolden with the recorded file passed through
// amend first (nil = as recorded): the place a test states, line by line,
// what it no longer expects of the parent's answers.
func checkGoldenAgainst(t *testing.T, name string, got []byte, amend func(t *testing.T, want []byte) []byte) {
	t.Helper()
	path := filepath.Join("testdata", "parent", name)
	if *recordParent {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want = dropDenseBytes.ReplaceAll(want, []byte("$1"))
	if amend != nil {
		want = amend(t, want)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	record := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "== ") {
			record = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("%s diverges from the parent's answer at line %d, in %s\nparent: %.400s\ngot:    %.400s", name, i+1, record, wl[i], gl[i])
		}
	}
	t.Fatalf("%s: %d lines, the parent recorded %d", name, len(gl), len(wl))
}

// TestParentGoldens replays the request matrix the two-stack parent was
// recorded on — serve mode and router mode over 1, 2 and 3 shards, before
// and after an edit batch, with a backend down and recovered — and demands
// the same bytes. TestRouterByteIdenticalToSingleNode compares the front
// end with itself and so cannot see a change both row sources share; this
// can.
func TestParentGoldens(t *testing.T) {
	g := gen.WebGraph(goldenN, 5, 101)
	opt := query.Options{Walks: 200, Seed: 7, Workers: 1}
	cfg := Config{Workers: 1, MaxBatch: goldenMaxBatch}

	run := func(t *testing.T, name string, h http.Handler, sv *serving, down *flakyBackend) {
		var out bytes.Buffer
		transcribe(t, &out, h, sv, "before", goldenQueries())
		transcribe(t, &out, h, sv, "edit", goldenEdits)
		transcribe(t, &out, h, sv, "after", goldenQueries())
		if down != nil {
			down.mode.Store("503")
			transcribe(t, &out, h, sv, "down", goldenDownProbes)
			down.mode.Store("")
			transcribe(t, &out, h, sv, "recovered", goldenRecoveredProbes)
		}
		checkGolden(t, name, out.Bytes())
	}

	t.Run("serve", func(t *testing.T) {
		idx, err := query.BuildIndex(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(idx, cfg)
		run(t, "serve.txt", srv, &srv.serving, nil)
	})

	// A loaded index that never had its graph attached: estimates work,
	// everything that needs the graph must refuse in the parent's words.
	t.Run("serve-nograph", func(t *testing.T) {
		idx, err := query.BuildIndex(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		var file bytes.Buffer
		if err := idx.Save(&file); err != nil {
			t.Fatal(err)
		}
		loaded, err := query.Load(&file)
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(loaded, cfg)
		var out bytes.Buffer
		transcribe(t, &out, srv, &srv.serving, "nograph", []goldenProbe{
			{name: "topk", method: "GET", path: "/v1/topk?q=7&k=9"},
			{name: "topk_rerank", method: "GET", path: "/v1/topk?q=7&k=9&rerank=1"},
			{name: "topk_degraded", method: "GET", path: "/v1/topk?q=7&k=9&rerank=1&timeout_ms=60000", before: degradeRerank, after: resetRerank},
			{name: "batch_topk", method: "POST", path: "/v1/batch", body: `{"mode":"topk","sources":[3,4],"k":3}`},
			{name: "batch_topk_rerank", method: "POST", path: "/v1/batch", body: `{"mode":"topk","sources":[3,4],"k":3,"rerank":true}`},
			{name: "batch_topk_rerank_cached", method: "POST", path: "/v1/batch", body: `{"mode":"topk","sources":[3],"k":3}`},
			{name: "lss", method: "GET", path: "/v1/single_source?q=4&engine=linearized"},
			{name: "etopk", method: "GET", path: "/v1/topk?q=4&k=3&engine=linearized"},
			{name: "join", method: "POST", path: "/v1/join", body: `{"k":5,"threshold":0.15}`},
			{name: "edges", method: "POST", path: "/v1/edges", body: `{"edits":[{"op":"add","u":2,"v":55}]}`},
		})
		checkGolden(t, "serve-nograph.txt", out.Bytes())
	})

	for shards := 1; shards <= 3; shards++ {
		t.Run(fmt.Sprintf("router%d", shards), func(t *testing.T) {
			ranges, err := shard.Plan(goldenN, shards)
			if err != nil {
				t.Fatal(err)
			}
			var urls []string
			var middle *flakyBackend
			for i, rg := range ranges {
				sh, err := shard.Build(g, opt, rg.Lo, rg.Hi)
				if err != nil {
					t.Fatal(err)
				}
				ss, err := NewShardServer(sh, cfg)
				if err != nil {
					t.Fatal(err)
				}
				fb := &flakyBackend{next: ss}
				fb.mode.Store("")
				if shards > 1 && i == shards/2 {
					middle = fb
				}
				ts := httptest.NewServer(fb)
				defer ts.Close()
				urls = append(urls, ts.URL)
			}
			rt, err := NewRouter(g, urls, RouterConfig{Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			run(t, fmt.Sprintf("router%d.txt", shards), rt, &rt.serving, middle)
		})
	}
}

// metricNames fetches h's /metrics and returns its series without values:
// one "name{labels}" per line, sorted.
func metricNames(t *testing.T, h http.Handler) []string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		// The build version is a value in label's clothing.
		name := strings.Replace(line[:strings.LastIndexByte(line, ' ')], `version="`+Version+`"`, `version="*"`, 1)
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestParentMetricNames: every series (name and label set; order free)
// each mode exported at the parent is still exported — one writer for the
// shared lines must not have dropped any — and router mode now also reports
// the update effects its /v1/edges response always carried, and both ends of
// a score leg count what crosses it.
func TestParentMetricNames(t *testing.T) {
	g := gen.WebGraph(goldenN, 5, 101)
	opt := query.Options{Walks: 20, Seed: 7, Workers: 1}
	idx, err := query.BuildIndex(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := shard.Build(g, opt, 0, goldenN)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewShardServer(sh, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(ss)
	defer ts.Close()
	rt, err := NewRouter(g, []string{ts.URL}, RouterConfig{Config: Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		h    http.Handler
		also []string
	}{
		{"serve", NewServer(idx, Config{Workers: 1}), nil},
		{"shard", ss, []string{"simrankd_shard_scores_entries_total"}},
		{"router", rt, []string{"simrankd_update_edges_added_total", "simrankd_update_edges_removed_total", "simrankd_update_walks_repaired_total",
			"simrankd_shard_leg_bytes_total", "simrankd_shard_leg_rows_total"}},
	} {
		got := metricNames(t, mode.h)
		file := "metrics-" + mode.name + ".txt"
		if *recordParent {
			checkGolden(t, file, []byte(strings.Join(got, "\n")+"\n"))
			continue
		}
		want, err := os.ReadFile(filepath.Join("testdata", "parent", file))
		if err != nil {
			t.Fatal(err)
		}
		have := make(map[string]bool, len(got))
		for _, name := range got {
			have[name] = true
		}
		for _, name := range append(strings.Split(strings.TrimSpace(string(want)), "\n"), mode.also...) {
			if !have[name] {
				t.Errorf("%s /metrics no longer exports %s", mode.name, name)
			}
		}
	}
}
