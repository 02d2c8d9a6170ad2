// Command simrankd serves single-source and top-k SimRank queries over
// HTTP from a persistent walk index (see oipsr/simrank/query).
//
// The daemon runs in one of three modes (-mode):
//
//	serve   single-node server over the whole graph (default)
//	shard   serve range -shard-ordinal of a -shards way split, built from
//	        the graph: /shard/v1/* partial-result endpoints plus /v1/edges
//	router  stateless scatter/gather front: the full /v1/* surface,
//	        fanned out over -backends shard servers
//
// In serve mode the daemon loads the graph (edge-list file or generator),
// then loads the walk index from -index if the file exists, or builds it
// and — when -index is given — saves it for the next start. Queries are
// answered from the index alone; an LRU cache memoizes hot responses.
//
//	simrankd -gen web -n 5000 -d 11 -addr :8356
//	simrankd -graph web.txt -index web.idx -walks 200 -addr :8356
//
// -index-mmap makes every edit batch durable in an edit log beside the
// -index file (rewritten into the file at checkpoints and at shutdown), so
// a restart serves the edited index; a fresh build under it is streamed
// straight into the file and opened once:
//
//	simrankd -graph big.txt -index big.idx -index-mmap
//
// A sharded deployment of the same graph — each shard builds its range
// from the graph at start-up and keeps no file:
//
//	simrankd -mode shard -gen web -n 5000 -d 11 -shards 3 -shard-ordinal 0 -addr :8360
//	...                                        -shards 3 -shard-ordinal 1 -addr :8361
//	...                                        -shards 3 -shard-ordinal 2 -addr :8362
//	simrankd -mode router -gen web -n 5000 -d 11 -backends http://localhost:8360,http://localhost:8361,http://localhost:8362
//
// Endpoints (serve and router modes):
//
//	GET  /v1/single_source?q=17           dense score vector for vertex 17
//	GET  /v1/single_source?q=17&min=0.01  only entries with score >= 0.01
//	GET  /v1/topk?q=17&k=10               top-10 by index estimate
//	GET  /v1/topk?q=17&k=10&rerank=1      top-10 after exact reranking
//	POST /v1/batch                        many sources, one shared traversal (NDJSON)
//	POST /v1/join                         all-pairs top-k similarity join
//	POST /v1/edges                        batch edge adds/removes, applied live
//	GET  /healthz                         liveness + index parameters
//	GET  /metrics                         Prometheus-style counters
//
// Every answer is the walk index's estimate (reranked exactly on request).
// The four read endpoints accept ?engine=walk, the same as no parameter,
// and refuse any other engine with a 400. Exact converged rows are an
// offline computation: the simrank command's -algo linearized -query q,
// or simrank.Compute.
//
// Router answers are byte-identical to what a single-node server over the
// same graph would return; when a shard is unreachable the router answers
// from the shards it can reach and marks the response degraded instead of
// failing it. See docs/API.md for the full reference and ARCHITECTURE.md
// for the sharding design.
//
// Overload behavior: every /v1 request runs under -request-timeout
// (shortened per request via ?timeout_ms=, never extended); at most
// -max-inflight requests execute concurrently with a wait queue of
// -queue-depth behind them, beyond which requests are shed with 429 +
// Retry-After; reranked top-k requests whose remaining deadline cannot
// afford the exact rerank are served raw walk estimates marked degraded.
//
// The process shuts down gracefully on SIGINT/SIGTERM: it stops accepting
// connections and drains in-flight requests for -shutdown-drain; requests
// still running then have their contexts cancelled, which ends NDJSON
// streams with a terminal error line, and the server exits.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"oipsr/graph"
	"oipsr/graph/gen"
	"oipsr/graph/gio"
	"oipsr/internal/simrankd"
	"oipsr/simrank/query"
	"oipsr/simrank/shard"
)

// options is everything the flag set decides, gathered so validation is
// one testable function instead of checks strewn through main.
type options struct {
	mode    string
	addr    string
	version bool

	graphPath string
	genType   string
	n, d      int
	seed      int64

	indexPath string
	rebuild   bool
	indexMmap bool
	c         float64
	k         int
	eps       float64
	walks     int
	workers   int

	cacheSize int
	maxBatch  int
	joinCand  int

	reqTimeout  time.Duration
	maxInflight int
	queueDepth  int
	drain       time.Duration

	shards       int
	shardOrdinal int
	backends     string
	shardTimeout time.Duration
}

// validate rejects option combinations at startup rather than letting
// them surface as runtime misbehavior. It returns the first problem
// found, phrased for the command line.
func validate(o *options) error {
	switch o.mode {
	case "serve", "shard", "router":
	default:
		return fmt.Errorf("-mode must be serve, shard or router (got %q)", o.mode)
	}
	if o.maxBatch < 1 {
		return fmt.Errorf("-max-batch must be at least 1 (got %d)", o.maxBatch)
	}
	if o.joinCand < 1 {
		return fmt.Errorf("-join-max-candidates must be at least 1 (got %d)", o.joinCand)
	}
	if o.maxInflight < 1 {
		return fmt.Errorf("-max-inflight must be at least 1 (got %d)", o.maxInflight)
	}
	if o.queueDepth < -1 {
		return fmt.Errorf("-queue-depth must be -1 (no queue), 0 (default) or positive (got %d)", o.queueDepth)
	}
	if o.reqTimeout < 0 {
		return fmt.Errorf("-request-timeout must not be negative (got %v)", o.reqTimeout)
	}
	if o.drain < 0 {
		return fmt.Errorf("-shutdown-drain must not be negative (got %v)", o.drain)
	}
	if o.indexMmap {
		if o.mode != "serve" {
			return fmt.Errorf("-index-mmap only applies to -mode serve (got %q: a shard builds its range from the graph, the router holds no index)", o.mode)
		}
		if o.indexPath == "" {
			return errors.New("-index-mmap needs -index (a file to write back to)")
		}
	}
	switch o.mode {
	case "shard":
		if o.shards < 1 {
			return fmt.Errorf("-mode shard needs -shards >= 1 (got %d)", o.shards)
		}
		if o.shardOrdinal < 0 {
			return fmt.Errorf("-shard-ordinal must not be negative (got %d)", o.shardOrdinal)
		}
		if o.shardOrdinal >= o.shards {
			return fmt.Errorf("-shard-ordinal %d out of range for -shards %d", o.shardOrdinal, o.shards)
		}
	case "router":
		if len(splitBackends(o.backends)) == 0 {
			return errors.New("-mode router needs -backends (comma-separated shard base URLs)")
		}
		if o.shardTimeout < 0 {
			return fmt.Errorf("-shard-timeout must not be negative (got %v)", o.shardTimeout)
		}
	}
	return nil
}

// splitBackends turns "-backends a,b,c" into trimmed non-empty URLs.
func splitBackends(s string) []string {
	var out []string
	for _, b := range strings.Split(s, ",") {
		if b = strings.TrimSpace(b); b != "" {
			out = append(out, b)
		}
	}
	return out
}

func main() {
	var o options
	flag.StringVar(&o.mode, "mode", "serve", "serve | shard | router")
	flag.StringVar(&o.addr, "addr", ":8356", "listen address")
	flag.BoolVar(&o.version, "version", false, "print version and exit")
	flag.StringVar(&o.graphPath, "graph", "", "edge-list file to load")
	flag.StringVar(&o.genType, "gen", "", "generate instead of load: web | citation | coauthor | er | rmat")
	flag.IntVar(&o.n, "n", 1000, "generator: vertices")
	flag.IntVar(&o.d, "d", 8, "generator: average degree")
	flag.Int64Var(&o.seed, "seed", 1, "generator / index seed")
	flag.StringVar(&o.indexPath, "index", "", "walk-index file: loaded when present, else built and saved here")
	flag.BoolVar(&o.rebuild, "rebuild", false, "rebuild the index even if -index exists")
	flag.BoolVar(&o.indexMmap, "index-mmap", false, "serve: make every /v1/edges batch durable in an edit log beside the index file, rewritten into the file at checkpoints (each a whole re-save of the index), so a restart on the edited graph serves the edited index; the graph before the edits is refused")
	flag.Float64Var(&o.c, "c", 0.6, "damping factor C")
	flag.IntVar(&o.k, "k", 0, "walk horizon (0 = derive from -eps)")
	flag.Float64Var(&o.eps, "eps", 1e-3, "truncation target when -k is 0")
	flag.IntVar(&o.walks, "walks", 0, "walk fingerprints per vertex (0 = 100)")
	flag.IntVar(&o.workers, "workers", 0, "index build/update worker pool (0 = all CPUs, 1 = serial)")
	flag.IntVar(&o.cacheSize, "cache", 1024, "LRU query-cache entries (0 = disabled)")
	flag.IntVar(&o.maxBatch, "max-batch", simrankd.DefaultMaxBatch, "max sources per /v1/batch request")
	flag.IntVar(&o.joinCand, "join-max-candidates", query.DefaultMaxCandidates, "max candidate pairs a /v1/join may enumerate")
	flag.DurationVar(&o.reqTimeout, "request-timeout", 10*time.Second, "deadline per /v1 request, also the cap on ?timeout_ms= overrides (0 = none)")
	flag.IntVar(&o.maxInflight, "max-inflight", simrankd.DefaultMaxInflight(), "max /v1 requests executing concurrently")
	flag.IntVar(&o.queueDepth, "queue-depth", 0, "requests allowed to wait for an execution slot; beyond it 429 (0 = 2*max-inflight, -1 = no queue)")
	flag.DurationVar(&o.drain, "shutdown-drain", 10*time.Second, "time to drain in-flight requests on SIGINT/SIGTERM before cancelling them")
	flag.IntVar(&o.shards, "shards", 0, "shard: fleet size, the number of ranges [0, n) is split into")
	flag.IntVar(&o.shardOrdinal, "shard-ordinal", 0, "shard: which planned range this process serves")
	flag.StringVar(&o.backends, "backends", "", "router: comma-separated shard base URLs, one per vertex range")
	flag.DurationVar(&o.shardTimeout, "shard-timeout", simrankd.DefaultShardTimeout, "router: deadline per scatter leg to one shard")
	flag.Parse()

	if o.version {
		fmt.Printf("simrankd %s\n", simrankd.Version)
		return
	}
	if err := validate(&o); err != nil {
		fmt.Fprintf(os.Stderr, "simrankd: %v\n", err)
		os.Exit(1)
	}

	g, err := loadGraph(o.graphPath, o.genType, o.n, o.d, o.seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simrankd: %v\n", err)
		os.Exit(1)
	}
	log.Printf("graph: %s", graph.ComputeStats(g))
	opt := query.Options{
		C: o.c, K: o.k, Eps: o.eps, Walks: o.walks, Seed: o.seed, Workers: o.workers,
	}
	cfg := simrankd.Config{
		CacheSize:         o.cacheSize,
		Workers:           o.workers,
		MaxBatch:          o.maxBatch,
		JoinMaxCandidates: o.joinCand,
		MaxInflight:       o.maxInflight,
		QueueDepth:        o.queueDepth,
		RequestTimeout:    o.reqTimeout,
	}
	if o.cacheSize == 0 {
		cfg.CacheSize = -1 // flag 0 = off; Config uses negative for that
	}

	var handler http.Handler
	var served *query.Index // closed after the drain: a write-back index checkpoints its edit log
	switch o.mode {
	case "router":
		rt, err := simrankd.NewRouter(g, splitBackends(o.backends), simrankd.RouterConfig{
			Config: cfg, ShardTimeout: o.shardTimeout,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "simrankd: %v\n", err)
			os.Exit(1)
		}
		log.Printf("router: fronting %d shards", len(splitBackends(o.backends)))
		handler = rt

	default: // serve and shard: one index, over the full range or one range of a fleet
		idx, err := openIndex(g, &o, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simrankd: %v\n", err)
			os.Exit(1)
		}
		served = idx
		log.Printf("index: range [%d,%d) of n=%d walks=%d horizon=%d c=%g (%d bytes, %s)",
			idx.Lo(), idx.Hi(), idx.N(), idx.Walks(), idx.Horizon(), idx.C(), idx.Bytes(), idx.Backend())
		if o.mode == "serve" {
			handler = simrankd.NewServer(idx, cfg)
		} else if handler, err = simrankd.NewShardServer(&shard.Shard{Index: idx}, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "simrankd: %v\n", err)
			os.Exit(1)
		}
	}

	if err := run(handler, o.addr, o.drain); err != nil {
		fmt.Fprintf(os.Stderr, "simrankd: %v\n", err)
		os.Exit(1)
	}
	if served != nil {
		if err := served.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "simrankd: closing the index: %v\n", err)
			os.Exit(1)
		}
	}
}

// run serves handler on addr until SIGINT/SIGTERM, then drains in-flight
// requests for up to drain before cancelling their contexts.
func run(handler http.Handler, addr string, drain time.Duration) error {
	// baseCtx is the ancestor of every request context; cancelling it is
	// the lever that aborts requests still running when the graceful-drain
	// window closes.
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	srv := &http.Server{
		Addr:        addr,
		Handler:     handler,
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down (draining in-flight requests for up to %v)", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	if err == nil {
		return nil // drained clean
	}
	// The drain window closed with requests still running. Cancel their
	// contexts: queries abort at the next chunk boundary and NDJSON
	// streams write a terminal error line, after which a short second
	// Shutdown lets those responses reach the wire.
	log.Printf("drain deadline passed; cancelling in-flight requests")
	cancelBase()
	lastCtx, cancelLast := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancelLast()
	if err := srv.Shutdown(lastCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// openIndex produces the index this process serves, graph attached: the
// full range in serve mode, range -shard-ordinal of the fleet in shard
// mode. A shard is always built from the graph. In serve mode the index
// is loaded from the -index file when it exists (and -rebuild is not
// given), and otherwise built. Under -index-mmap the build is streamed
// into the -index file, which is then opened once and keeps every edit
// batch durable (an edit log beside it, checkpointed into it); any other
// index is built in memory and saved to -index if given. A loaded index
// that disagrees with the index-shaping flags is served as it is, with a
// warning.
func openIndex(g *graph.Graph, o *options, opt query.Options) (*query.Index, error) {
	r := shard.Range{Lo: 0, Hi: g.NumVertices()}
	path := o.indexPath
	if o.mode == "shard" {
		ranges, err := shard.Plan(g.NumVertices(), o.shards)
		if err != nil {
			return nil, err
		}
		r, path = ranges[o.shardOrdinal], ""
	}
	// open loads the file at path and attaches the graph; how is for the log.
	open := func(how string) (*query.Index, error) {
		var idx *query.Index
		var err error
		if o.indexMmap {
			idx, err = query.LoadFileMapped(path, query.MappedOptions{})
		} else {
			idx, err = query.LoadFile(path)
		}
		if err != nil {
			return nil, err
		}
		if err := idx.AttachGraph(g); err != nil {
			idx.Close()
			return nil, fmt.Errorf("index %s does not match the graph (after edits were written back, start on the edited graph, or -rebuild): %w", path, err)
		}
		log.Printf("index: %s %s (%s)", how, path, idx.Backend())
		return idx, nil
	}

	if path != "" && !o.rebuild {
		idx, err := open("loaded")
		switch {
		case err == nil:
			if warn := paramMismatch(idx, opt); warn != "" {
				log.Printf("index: WARNING: loaded index disagrees with flags (%s); index-shaping flags are ignored for a loaded index — pass -rebuild to apply them", warn)
			}
			return idx, nil
		case !errors.Is(err, os.ErrNotExist):
			return nil, fmt.Errorf("loading index %s: %w", path, err)
		}
	}
	t0 := time.Now()
	if o.indexMmap {
		// The index is served from the file its edits go to: stream the
		// build into it and open it once.
		st, err := query.BuildFileStreaming(g, opt, path, query.StreamSliceBytes)
		if err != nil {
			return nil, err
		}
		log.Printf("index: stream-built %s in %v (%d slices of %d vertices, %d bytes)",
			path, time.Since(t0), st.Slices, st.SliceVertices, st.Bytes)
		return open("opened")
	}
	sh, err := shard.Build(g, opt, r.Lo, r.Hi)
	if err != nil {
		return nil, err
	}
	log.Printf("index: built in %v", time.Since(t0))
	if path != "" {
		if err := sh.SaveFile(path); err != nil {
			return nil, fmt.Errorf("saving index %s: %w", path, err)
		}
		log.Printf("index: saved %s (format v%d)", path, query.FormatVersion)
	}
	return sh.Index, nil
}

// paramMismatch describes how a loaded index's parameters diverge from
// what the command line asked for, or "" when they agree. It resolves the
// same defaults BuildIndex would (walks 100, C 0.6); the eps-derived
// horizon is only compared when -k was given explicitly.
func paramMismatch(idx *query.Index, opt query.Options) string {
	var diffs []string
	if walks := cmp.Or(opt.Walks, 100); idx.Walks() != walks {
		diffs = append(diffs, fmt.Sprintf("walks %d vs -walks %d", idx.Walks(), walks))
	}
	if c := cmp.Or(opt.C, 0.6); idx.C() != c {
		diffs = append(diffs, fmt.Sprintf("c %g vs -c %g", idx.C(), c))
	}
	if opt.K > 0 && idx.Horizon() != opt.K {
		diffs = append(diffs, fmt.Sprintf("horizon %d vs -k %d", idx.Horizon(), opt.K))
	}
	if idx.Seed() != opt.Seed {
		diffs = append(diffs, fmt.Sprintf("seed %d vs -seed %d", idx.Seed(), opt.Seed))
	}
	return strings.Join(diffs, ", ")
}

func loadGraph(path, genType string, n, d int, seed int64) (*graph.Graph, error) {
	switch {
	case path != "" && genType != "":
		return nil, fmt.Errorf("use either -graph or -gen, not both")
	case path != "":
		return gio.LoadEdgeListFile(path)
	case genType != "":
		switch genType {
		case "web":
			return gen.WebGraph(n, d, seed), nil
		case "citation":
			return gen.CitationGraph(n, d, seed), nil
		case "coauthor":
			return gen.CoauthorGraph(n, d, seed), nil
		case "er":
			return gen.ErdosRenyi(n, n*d, seed), nil
		case "rmat":
			return gen.RMAT(n, n*d, gen.DefaultRMAT, seed), nil
		default:
			return nil, fmt.Errorf("unknown generator %q", genType)
		}
	default:
		return nil, fmt.Errorf("provide -graph FILE or -gen TYPE")
	}
}
