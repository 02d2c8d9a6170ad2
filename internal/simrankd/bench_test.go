package simrankd

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"oipsr/graph/gen"
	"oipsr/simrank/query"
	"oipsr/simrank/shard"
)

// benchServer builds an uncached server over a small index: with the LRU
// on, everything after the first iteration measures a map lookup; the
// pools (score rows, encode buffers) are what these benchmarks watch.
func benchServer(tb testing.TB) *Server {
	tb.Helper()
	g := gen.WebGraph(200, 8, 11)
	idx, err := query.BuildIndex(g, query.Options{Walks: 100, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	return NewServer(idx, Config{CacheSize: -1, Workers: 1})
}

// BenchmarkServeSingleSource measures one /v1/single_source request
// through the full handler stack (limiter, sweep, JSON encode) without a
// network in the way.
func BenchmarkServeSingleSource(b *testing.B) {
	srv := benchServer(b)
	req := httptest.NewRequest(http.MethodGet, "/v1/single_source?q=17", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// benchIndex is the serve-zipf index of the benchmark (WebGraph n=6000,
// R=100), under the handler stack: what a response-cache miss costs.
func benchIndex(b *testing.B) *query.Index {
	b.Helper()
	idx, err := query.BuildIndex(gen.WebGraph(6000, 11, 1), query.Options{Walks: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return idx
}

// BenchmarkSingleSource measures one single-source row over rotating
// sources into a reused buffer.
func BenchmarkSingleSource(b *testing.B) {
	idx := benchIndex(b)
	dst := make([]float64, idx.N())
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.SingleSourceInto(ctx, i*37%idx.N(), dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiSource16 measures the 16-source batch behind POST
// /v1/batch, one worker.
func BenchmarkMultiSource16(b *testing.B) {
	idx := benchIndex(b)
	ctx := context.Background()
	sources := make([]int, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range sources {
			sources[j] = (i*16 + j) * 37 % idx.N()
		}
		if _, err := idx.MultiSource(ctx, sources, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestServeSingleSourceAllocSteadyState pins the per-request allocation
// count of the pooled request path. The ceiling has headroom over the
// measured steady state (~14 with the recorder's own buffers included) but
// sits far below what losing the score-row or encode-buffer pooling costs
// — a regression that reallocates either per request trips it.
func TestServeSingleSourceAllocSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is disturbed by -short's test interleaving")
	}
	srv := benchServer(t)
	req := httptest.NewRequest(http.MethodGet, "/v1/single_source?q=17", nil)

	// Warm the pools so pool misses don't count against the steady state.
	for i := 0; i < 4; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	}
	const ceiling = 64
	avg := testing.AllocsPerRun(50, func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			panic(fmt.Sprintf("status %d", rec.Code))
		}
	})
	if avg > ceiling {
		t.Errorf("single_source request = %.1f allocs, ceiling %d — did a per-request buffer lose its pool?", avg, ceiling)
	}
}

// rerankSources are hub-heavy sources of benchIndex's graph: their default
// rerank pools expand through the highest in-degree vertices, so each
// leaves a memo of 80 000 to 380 000 entries — the requests that are the
// tail of serve-zipf.
var rerankSources = []int{70, 238, 84, 14, 791, 0, 105, 693, 413, 133, 735, 378, 147, 329, 140, 2212}

// BenchmarkRerank measures the exact rerank of one default pool (k=10, 40
// candidates) from an already-swept row, rotating over rerankSources:
// what ?rerank=1 adds to a top-k miss.
func BenchmarkRerank(b *testing.B) {
	idx := benchIndex(b)
	ctx := context.Background()
	rows := make([][]float64, len(rerankSources))
	for i, q := range rerankSources {
		var err error
		if rows[i], err = idx.SingleSource(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	opt := &query.TopKOptions{Rerank: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(rerankSources)
		if _, err := idx.TopKFromScores(ctx, rows[j], rerankSources[j], 10, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// TestServeRerankAllocSteadyState pins the allocations of a warm
// ?rerank=1 request: the exact scorer's memo table comes from a pool, so a
// request allocates its candidate list, its response and the handler's
// small change — not a table. The source is a hub (vertex 0 of the web
// graph), whose memo runs to hundreds of entries; building that in a Go map
// per request, as the scorer once did, costs several times the ceiling.
func TestServeRerankAllocSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is disturbed by -short's test interleaving")
	}
	srv := benchServer(t)
	req := httptest.NewRequest(http.MethodGet, "/v1/topk?q=0&k=10&rerank=1", nil)
	serve := func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			panic(fmt.Sprintf("status %d", rec.Code))
		}
	}
	for i := 0; i < 4; i++ {
		serve()
	}
	const ceiling = 64
	if avg := testing.AllocsPerRun(50, serve); avg > ceiling {
		t.Errorf("reranked top-k request = %.1f allocs, ceiling %d — did the scorer's table lose its pool?", avg, ceiling)
	}
}

// routerBench is the router-zipf deployment of the benchmark in one
// process: two shard servers over the serve-zipf graph behind loopback
// listeners, and the router over them with its response cache off, driven
// straight through ServeHTTP — every request is a scatter over real HTTP
// legs.
func routerBench(tb testing.TB) *Server {
	tb.Helper()
	g := gen.WebGraph(6000, 11, 1)
	opt := query.Options{Walks: 100, Seed: 1}
	ranges, err := shard.Plan(g.NumVertices(), 2)
	if err != nil {
		tb.Fatal(err)
	}
	var urls []string
	for _, rg := range ranges {
		sh, err := shard.Build(g, opt, rg.Lo, rg.Hi)
		if err != nil {
			tb.Fatal(err)
		}
		ss, err := NewShardServer(sh, Config{Workers: 1})
		if err != nil {
			tb.Fatal(err)
		}
		ts := httptest.NewServer(ss)
		tb.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	rt, err := NewRouter(g, urls, RouterConfig{Config: Config{CacheSize: -1, Workers: 1}})
	if err != nil {
		tb.Fatal(err)
	}
	return rt
}

// newRequest builds a server-side request without httptest.NewRequest's
// parse through a fresh 4 KB bufio.Reader, which would be an eighth of what
// the request under measurement allocates.
func newRequest(method, target string, body io.Reader) *http.Request {
	req, err := http.NewRequest(method, target, body)
	if err != nil {
		panic(err)
	}
	return req
}

// topKMiss is request i of a top-10 stream over rotating sources.
func topKMiss(i int) *http.Request {
	return newRequest(http.MethodGet, fmt.Sprintf("/v1/topk?q=%d&k=10", i*37%6000), nil)
}

// batch16 is request i of a stream of 16-source top-10 batches.
func batch16(i int) *http.Request {
	var body strings.Builder
	body.WriteString(`{"mode":"topk","k":10,"sources":[`)
	for j := 0; j < 16; j++ {
		if j > 0 {
			body.WriteByte(',')
		}
		fmt.Fprint(&body, (i*16+j)*37%6000)
	}
	body.WriteString(`]}`)
	return newRequest(http.MethodPost, "/v1/batch", strings.NewReader(body.String()))
}

func benchRouter(b *testing.B, request func(i int) *http.Request) {
	rt := routerBench(b)
	fleet := rt.src.(*fleetSource)
	b.ReportAllocs()
	b.ResetTimer()
	legBytes := fleet.legBytes.Load()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, request(i))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	b.ReportMetric(float64(fleet.legBytes.Load()-legBytes)/float64(b.N), "leg-bytes/op")
}

// BenchmarkRouterTopKMiss measures one /v1/topk miss through the router:
// scatter, two legs, merge, rank, encode. B/op includes the shard servers'
// side of the legs — they run in this process.
func BenchmarkRouterTopKMiss(b *testing.B) { benchRouter(b, topKMiss) }

// BenchmarkRouterBatch16 measures the 16-source /v1/batch miss through the
// router: router-zipf's second op.
func BenchmarkRouterBatch16(b *testing.B) { benchRouter(b, batch16) }

// allocBytesPerRun is testing.AllocsPerRun for bytes.
func allocBytesPerRun(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestRouterMissAllocSteadyState: a dense leg cost one n-vector per leg to
// decode (48 KB at n = 6000, twice over for two shards) before anything was
// merged; a sparse leg is a few hundred bytes read into pooled memory. The
// whole request — both shard servers' handlers and the HTTP machinery of two
// loopback legs included, ~28 KB, nearly all of it net/http's — stays under
// what one dense leg alone allocated.
func TestRouterMissAllocSteadyState(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("alloc counting is disturbed by -short's test interleaving and by -race's leaky pools")
	}
	rt := routerBench(t)
	i := 0
	serve := func() {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, topKMiss(i))
		i++
		if rec.Code != http.StatusOK {
			panic(fmt.Sprintf("status %d", rec.Code))
		}
	}
	for w := 0; w < 50; w++ {
		serve()
	}
	const ceiling = 40 << 10 // one 6000-vertex row is 48 KB
	if got := allocBytesPerRun(200, serve); got > ceiling {
		t.Errorf("router top-k miss allocates %.0f bytes, ceiling %d — is a leg, or the merge, n-sized again?", got, ceiling)
	}
}

// TestBatchMissAllocSteadyState: on a resident index a 16-source batch miss
// gathers 16 sparse rows from pooled scratch; the 16 dense rows it used to
// allocate were 768 KB at n = 6000. The ceiling is a twelfth of that.
func TestBatchMissAllocSteadyState(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("alloc counting is disturbed by -short's test interleaving and by -race's leaky pools")
	}
	idx, err := query.BuildIndex(gen.WebGraph(6000, 11, 1), query.Options{Walks: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(idx, Config{CacheSize: -1, Workers: 1})
	i := 0
	serve := func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, batch16(i))
		i++
		if rec.Code != http.StatusOK {
			panic(fmt.Sprintf("status %d", rec.Code))
		}
	}
	for w := 0; w < 20; w++ {
		serve()
	}
	const ceiling = 64 << 10
	if got := allocBytesPerRun(100, serve); got > ceiling {
		t.Errorf("16-source batch miss allocates %.0f bytes, ceiling %d — did a dense S·n intermediate come back?", got, ceiling)
	}
}
