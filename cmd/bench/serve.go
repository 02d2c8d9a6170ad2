package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"oipsr/graph/gen"
	"oipsr/internal/simrankd"
	"oipsr/simrank/query"
)

// runServeWorkload drives simrankd through its admission control with a
// closed-loop load generator: a fixed set of workers each keeps exactly one
// request outstanding, so offered load tracks concurrency directly and the
// limiter's behavior — queueing, shedding, degradation — is what varies
// between levels. The server runs in-process (httptest over the same
// simrankd.Server cmd/simrankd serves), so latencies include the full HTTP
// stack but no real network, and allocation counts cover client and server
// together.
//
// Each level mixes the three request families the daemon serves
// (single_source, topk with and without rerank, NDJSON batch) and reports
// p50/p99/p999 latency, throughput, shed rate, degraded rate, and
// allocations per request.
//
// The run doubles as a regression gate: at concurrency 1 against idle
// capacity nothing may shed or degrade, and under deliberate overload the
// server must answer every request with 200, 429, or 503 — never a blind
// 5xx or a hung connection. Violations exit non-zero, which is what the CI
// smoke (bench -quick serve) relies on.
func runServeWorkload(cfg config) {
	header("Serving under load: admission control & shedding", "simrankd overload")

	const (
		maxInflight = 2
		queueDepth  = 2
		walks       = 100
	)
	levelDuration := 2 * time.Second / time.Duration(cfg.scale)
	if levelDuration < 200*time.Millisecond {
		levelDuration = 200 * time.Millisecond
	}

	g := gen.WebGraph(300, 8, cfg.seed)
	idx, err := query.BuildIndex(g, query.Options{Walks: walks, Seed: cfg.seed, Workers: benchWorkers})
	must(err)
	// At least two pool workers even on a single-CPU box: a serial server
	// never blocks mid-handler, so on GOMAXPROCS=1 handler goroutines
	// would run back-to-back and the limiter would never see two requests
	// contending — overload would be invisible by scheduling accident.
	serveWorkers := benchWorkers
	if serveWorkers < 2 {
		serveWorkers = 2
	}
	// The response cache is off: every request must compute, which is the
	// regime admission control exists for. With the LRU on, the whole 300-
	// vertex key space goes hot within the first level and the remaining
	// levels would measure cache lookups, not serving.
	srv := simrankd.NewServer(idx, simrankd.Config{
		CacheSize:      -1,
		Workers:        serveWorkers,
		MaxInflight:    maxInflight,
		QueueDepth:     queueDepth,
		RequestTimeout: 2 * time.Second,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	fmt.Printf("n=%d, walks=%d, max-inflight=%d, queue-depth=%d, %v per level\n\n",
		g.NumVertices(), walks, maxInflight, queueDepth, levelDuration)
	fmt.Printf("%11s | %8s %9s | %9s %9s %9s | %6s %6s %6s | %9s\n",
		"concurrency", "requests", "thru/s", "p50", "p99", "p999", "shed%", "degr%", "err", "allocs/rq")

	// Concurrency 1 can never saturate two slots; 4 fills slots+queue
	// exactly; 64 is sustained overload where shedding engages.
	for _, concurrency := range []int{1, maxInflight + queueDepth, 32 * maxInflight} {
		st := serveLevel(ts, concurrency, levelDuration)

		shedPct := 100 * float64(st.shed) / float64(max(st.requests, 1))
		degrPct := 100 * float64(st.degraded) / float64(max(st.requests, 1))
		thru := float64(st.requests-st.shed) / st.elapsed.Seconds()
		fmt.Printf("%11d | %8d %9.0f | %9v %9v %9v | %6.1f %6.1f %6d | %9.0f\n",
			concurrency, st.requests, thru,
			st.p50.Round(time.Microsecond), st.p99.Round(time.Microsecond), st.p999.Round(time.Microsecond),
			shedPct, degrPct, st.errors, st.allocsPerReq)

		emitJSON("serve", map[string]any{
			"concurrency":     concurrency,
			"max_inflight":    maxInflight,
			"queue_depth":     queueDepth,
			"n":               g.NumVertices(),
			"walks":           walks,
			"duration":        seconds(st.elapsed),
			"requests":        st.requests,
			"shed":            st.shed,
			"degraded":        st.degraded,
			"errors":          st.errors,
			"throughput_rps":  thru,
			"p50_seconds":     seconds(st.p50),
			"p99_seconds":     seconds(st.p99),
			"p999_seconds":    seconds(st.p999),
			"allocs_per_req":  st.allocsPerReq,
			"shed_percent":    shedPct,
			"degrade_percent": degrPct,
		})

		// Built-in invariants: an unloaded server must serve everything
		// exactly, and an overloaded one must fail fast and cleanly.
		if st.errors > 0 {
			fmt.Fprintf(os.Stderr, "serve: %d responses outside {200, 429, 503} at concurrency %d\n", st.errors, concurrency)
			os.Exit(1)
		}
		if concurrency == 1 && (st.shed != 0 || st.degraded != 0) {
			fmt.Fprintf(os.Stderr, "serve: shed=%d degraded=%d at concurrency 1 — an idle server must not refuse work\n", st.shed, st.degraded)
			os.Exit(1)
		}
	}
	fmt.Println("\n(closed loop: each worker keeps one request outstanding. thru/s excludes")
	fmt.Println(" shed requests; allocs/rq counts client+server since both run in-process.)")
}

// serveStats aggregates one load level.
type serveStats struct {
	requests     int
	shed         int // 429
	degraded     int // X-Simrank-Degraded on a 200
	errors       int // anything outside {200, 429, 503}
	elapsed      time.Duration
	p50          time.Duration
	p99          time.Duration
	p999         time.Duration
	allocsPerReq float64
}

// serveLevel runs `concurrency` closed-loop workers against ts for roughly
// d and aggregates their per-request measurements.
func serveLevel(ts *httptest.Server, concurrency int, d time.Duration) serveStats {
	type workerStats struct {
		durs     []time.Duration
		shed     int
		degraded int
		errors   int
	}
	perWorker := make([]workerStats, concurrency)
	// One persistent connection per worker. The default transport keeps
	// only two idle connections per host, so a larger fleet would open a
	// fresh TCP connection per request and the single accept loop would
	// serialize the offered load — the limiter would never see the
	// concurrency the workers think they are generating.
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        concurrency,
		MaxIdleConnsPerHost: concurrency,
	}}
	defer client.CloseIdleConnections()

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	deadline := t0.Add(d)

	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &perWorker[w]
			for i := 0; time.Now().Before(deadline); i++ {
				url, body := serveRequest(ts.URL, w, i)
				r0 := time.Now()
				var resp *http.Response
				var err error
				if body == "" {
					resp, err = client.Get(url)
				} else {
					resp, err = client.Post(url, "application/json", strings.NewReader(body))
				}
				if err != nil {
					st.errors++
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				st.durs = append(st.durs, time.Since(r0))
				switch resp.StatusCode {
				case http.StatusOK:
					if resp.Header.Get("X-Simrank-Degraded") == "true" {
						st.degraded++
					}
				case http.StatusTooManyRequests:
					st.shed++
					// A closed loop that hammers a shedding server in a
					// microsecond-tight spin measures the client's syscall
					// rate, not the server; back off like a real client.
					time.Sleep(time.Millisecond)
				case http.StatusServiceUnavailable:
					// deadline while queued: correct overload behavior
				default:
					st.errors++
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	var out serveStats
	out.elapsed = elapsed
	var durs []time.Duration
	for i := range perWorker {
		st := &perWorker[i]
		out.requests += len(st.durs)
		out.shed += st.shed
		out.degraded += st.degraded
		out.errors += st.errors
		durs = append(durs, st.durs...)
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	out.p50 = percentileMille(durs, 500)
	out.p99 = percentileMille(durs, 990)
	out.p999 = percentileMille(durs, 999)
	if out.requests > 0 {
		out.allocsPerReq = float64(ms1.Mallocs-ms0.Mallocs) / float64(out.requests)
	}
	return out
}

// serveRequest picks the i-th request for worker w from the serving mix:
// half single-source sweeps, a quarter plain top-k, an eighth reranked
// top-k, an eighth 32-source batches. The batches are the heavy tail —
// each occupies an execution slot for milliseconds while the point queries
// take microseconds — which is what makes the queue back up and shedding
// engage under overload, mirroring production mixes where bulk and
// interactive traffic share one server. Returns (url, "") for GETs and
// (url, body) for POSTs.
func serveRequest(base string, w, i int) (string, string) {
	q := (w*131 + i*17) % 300
	switch i % 8 {
	case 0, 1, 2, 3:
		return fmt.Sprintf("%s/v1/single_source?q=%d", base, q), ""
	case 4, 5:
		return fmt.Sprintf("%s/v1/topk?q=%d&k=10", base, q), ""
	case 6:
		return fmt.Sprintf("%s/v1/topk?q=%d&k=10&rerank=1", base, q), ""
	default:
		var sb strings.Builder
		sb.WriteString(`{"mode":"topk","sources":[`)
		for j := 0; j < 32; j++ {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", (q+j*9)%300)
		}
		sb.WriteString(`],"k":10}`)
		return base + "/v1/batch", sb.String()
	}
}

// percentileMille is the pm/1000 quantile of sorted durations.
func percentileMille(sorted []time.Duration, pm int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := len(sorted) * pm / 1000
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// queryVertices spreads count query vertices evenly over [0, n).
func queryVertices(n, count int) []int {
	if count > n {
		count = n
	}
	qs := make([]int, count)
	for i := range qs {
		qs[i] = i * n / count
	}
	return qs
}

// latencies runs fn once per query vertex and returns the p50 and p99 of
// the per-call wall times.
func latencies(queries []int, fn func(q int)) (p50, p99 time.Duration) {
	durs := make([]time.Duration, len(queries))
	for i, q := range queries {
		t0 := time.Now()
		fn(q)
		durs[i] = time.Since(t0)
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return percentileMille(durs, 500), percentileMille(durs, 990)
}
