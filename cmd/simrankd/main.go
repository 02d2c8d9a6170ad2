// Command simrankd serves single-source and top-k SimRank queries over
// HTTP from a persistent walk index (see oipsr/simrank/query).
//
// The daemon runs in one of four modes (-mode):
//
//	serve        single-node server over the whole graph (default)
//	build-shards partition the graph into -shards walk-index shards,
//	             publish them to -shard-dir with a sealed manifest, exit
//	shard        serve one vertex range: /shard/v1/* partial-result
//	             endpoints plus /v1/edges
//	router       stateless scatter/gather front: the full /v1/* surface,
//	             fanned out over -backends shard servers
//
// In serve mode the daemon loads the graph (edge-list file or generator),
// then loads the walk index from -index if the file exists, or builds it
// and — when -index is given — saves it for the next start. Queries are
// answered from the index alone; an LRU cache memoizes hot responses.
//
//	simrankd -gen web -n 5000 -d 11 -addr :8356
//	simrankd -graph web.txt -index web.idx -walks 200 -addr :8356
//
// -build-budget streams the build to disk in bounded slices, so the
// builder never holds the whole index, and -index-mmap serves from the
// sealed file's decoded rows and writes every edit batch back to it:
//
//	simrankd -graph big.txt -index big.idx -build-budget 268435456 -index-mmap
//
// A sharded deployment of the same graph:
//
//	simrankd -mode build-shards -gen web -n 5000 -d 11 -shards 3 -shard-dir shards/
//	simrankd -mode shard -gen web -n 5000 -d 11 -shard-dir shards/ -shard-ordinal 0 -addr :8360
//	...                                          -shard-ordinal 1 -addr :8361
//	...                                          -shard-ordinal 2 -addr :8362
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
// /v1/single_source and /v1/topk additionally accept ?engine=, selecting
// the query family: "walk" (the default — the walk index's estimates,
// exactly as above) or "linearized" (the exact converged row, solved on
// demand through the linearized-system engine; see docs/API.md). The
// linearized engine pays a one-time per-graph diagonal solve on its first
// query; -prewarm-exact moves that cost to startup.
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
// afford the exact rerank are served raw walk estimates marked degraded,
// and ?engine=linearized requests degrade to the walk estimates by the
// same cost-model rules when the exact solve no longer fits the deadline.
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

	indexPath    string
	rebuild      bool
	indexMmap    bool
	buildBudget  int64
	c            float64
	k            int
	eps          float64
	walks        int
	workers      int
	prewarmExact bool

	cacheSize int
	maxBatch  int
	joinCand  int

	reqTimeout  time.Duration
	maxInflight int
	queueDepth  int
	drain       time.Duration

	shards       int
	shardOrdinal int
	shardDir     string
	backends     string
	shardTimeout time.Duration
}

// validate rejects option combinations at startup rather than letting
// them surface as runtime misbehavior. It returns the first problem
// found, phrased for the command line.
func validate(o *options) error {
	switch o.mode {
	case "serve", "shard", "router", "build-shards":
	default:
		return fmt.Errorf("-mode must be serve, shard, router or build-shards (got %q)", o.mode)
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
	if o.prewarmExact && o.mode != "serve" {
		return fmt.Errorf("-prewarm-exact only applies to -mode serve (got %q)", o.mode)
	}
	if o.indexMmap {
		switch o.mode {
		case "serve":
			if o.indexPath == "" {
				return errors.New("-index-mmap needs -index (a file to write back to)")
			}
		case "shard":
			if o.shardDir == "" {
				return errors.New("-index-mmap in shard mode needs -shard-dir (a built manifest)")
			}
		default:
			return fmt.Errorf("-index-mmap only applies to -mode serve or shard (got %q: the router holds no index, build-shards only writes files)", o.mode)
		}
	}
	if o.buildBudget < 0 {
		return fmt.Errorf("-build-budget must not be negative (got %d)", o.buildBudget)
	}
	if o.buildBudget > 0 {
		switch o.mode {
		case "serve":
			if o.indexPath == "" {
				return errors.New("-build-budget needs -index (the streaming builder writes straight to a file)")
			}
		case "build-shards":
		default:
			return fmt.Errorf("-build-budget only applies to -mode serve or build-shards (got %q: shard and router modes never build index files)", o.mode)
		}
	}
	switch o.mode {
	case "build-shards":
		if o.shards < 1 {
			return fmt.Errorf("-mode build-shards needs -shards >= 1 (got %d)", o.shards)
		}
		if o.shardDir == "" {
			return errors.New("-mode build-shards needs -shard-dir")
		}
	case "shard":
		if o.shardDir == "" && o.shards < 1 {
			return errors.New("-mode shard needs -shard-dir (built manifest) or -shards (build in memory)")
		}
		if o.shardOrdinal < 0 {
			return fmt.Errorf("-shard-ordinal must not be negative (got %d)", o.shardOrdinal)
		}
		if o.shardDir == "" && o.shardOrdinal >= o.shards {
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
	flag.StringVar(&o.mode, "mode", "serve", "serve | shard | router | build-shards")
	flag.StringVar(&o.addr, "addr", ":8356", "listen address")
	flag.BoolVar(&o.version, "version", false, "print version and exit")
	flag.StringVar(&o.graphPath, "graph", "", "edge-list file to load")
	flag.StringVar(&o.genType, "gen", "", "generate instead of load: web | citation | coauthor | er | rmat")
	flag.IntVar(&o.n, "n", 1000, "generator: vertices")
	flag.IntVar(&o.d, "d", 8, "generator: average degree")
	flag.Int64Var(&o.seed, "seed", 1, "generator / index seed")
	flag.StringVar(&o.indexPath, "index", "", "walk-index file: loaded when present, else built and saved here")
	flag.BoolVar(&o.rebuild, "rebuild", false, "rebuild the index even if -index exists")
	flag.BoolVar(&o.indexMmap, "index-mmap", false, "serve/shard: write every /v1/edges batch back to the index file (only the changed blocks are re-encoded), so a restart serves the edited index")
	flag.Int64Var(&o.buildBudget, "build-budget", 0, "serve/build-shards: stream the index build to disk in slices of at most this many bytes of walk state, bounding builder memory (0 = unbounded: serve builds in memory, build-shards writes each shard as one slice); output is byte-identical")
	flag.Float64Var(&o.c, "c", 0.6, "damping factor C")
	flag.IntVar(&o.k, "k", 0, "walk horizon (0 = derive from -eps)")
	flag.Float64Var(&o.eps, "eps", 1e-3, "truncation target when -k is 0")
	flag.IntVar(&o.walks, "walks", 0, "walk fingerprints per vertex (0 = 100)")
	flag.IntVar(&o.workers, "workers", 0, "index build/update worker pool (0 = all CPUs, 1 = serial)")
	flag.IntVar(&o.cacheSize, "cache", 1024, "LRU query-cache entries (0 = disabled)")
	flag.BoolVar(&o.prewarmExact, "prewarm-exact", false, "serve mode: run the linearized engine's diagonal solve at startup instead of on the first ?engine=linearized query")
	flag.IntVar(&o.maxBatch, "max-batch", simrankd.DefaultMaxBatch, "max sources per /v1/batch request")
	flag.IntVar(&o.joinCand, "join-max-candidates", query.DefaultMaxCandidates, "max candidate pairs a /v1/join may enumerate")
	flag.DurationVar(&o.reqTimeout, "request-timeout", 10*time.Second, "deadline per /v1 request, also the cap on ?timeout_ms= overrides (0 = none)")
	flag.IntVar(&o.maxInflight, "max-inflight", simrankd.DefaultMaxInflight(), "max /v1 requests executing concurrently")
	flag.IntVar(&o.queueDepth, "queue-depth", 0, "requests allowed to wait for an execution slot; beyond it 429 (0 = 2*max-inflight, -1 = no queue)")
	flag.DurationVar(&o.drain, "shutdown-drain", 10*time.Second, "time to drain in-flight requests on SIGINT/SIGTERM before cancelling them")
	flag.IntVar(&o.shards, "shards", 0, "build-shards: partition count; shard: fleet size when building in memory")
	flag.IntVar(&o.shardOrdinal, "shard-ordinal", 0, "shard: which manifest entry (or planned range) this process serves")
	flag.StringVar(&o.shardDir, "shard-dir", "", "shard directory: written by build-shards, read by shard mode")
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
	switch o.mode {
	case "build-shards":
		t0 := time.Now()
		m, err := shard.BuildAll(g, opt, o.shardDir, o.shards, o.buildBudget)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simrankd: %v\n", err)
			os.Exit(1)
		}
		log.Printf("shards: built %d format-v%d shards (n=%d walks=%d horizon=%d c=%g) into %s in %v",
			len(m.Shards), m.Format, m.N, m.Walks, m.K, m.C, o.shardDir, time.Since(t0))
		return

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
		log.Printf("index: range [%d,%d) of n=%d walks=%d horizon=%d c=%g (%d bytes, %s)",
			idx.Lo(), idx.Hi(), idx.N(), idx.Walks(), idx.Horizon(), idx.C(), idx.Bytes(), idx.Backend())
		if o.prewarmExact {
			t0 := time.Now()
			if err := idx.PrepareExact(context.Background(), o.workers); err != nil {
				fmt.Fprintf(os.Stderr, "simrankd: %v\n", err)
				os.Exit(1)
			}
			st, _ := idx.ExactStats()
			log.Printf("index: linearized solver built in %v (%d sweeps, residual %.3g)",
				time.Since(t0), st.SolveIters, st.Residual)
		}
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
// mode. It is loaded from where the flags keep it — the -index file, or
// that entry of the -shard-dir manifest — and otherwise built: streamed to
// -index under -build-budget, else in memory and saved to -index if given.
// -index-mmap always serves from the sealed file, a fresh build included,
// and writes edit batches back to it.
// A loaded index that disagrees with the index-shaping flags is served as
// it is, with a warning.
func openIndex(g *graph.Graph, o *options, opt query.Options) (*query.Index, error) {
	r := shard.Range{Lo: 0, Hi: g.NumVertices()}
	path := o.indexPath
	load := func() (*query.Index, error) {
		if o.indexMmap {
			return query.LoadFileMapped(path, query.MappedOptions{})
		}
		return query.LoadFile(path)
	}
	sealed := false // a shard directory is built by build-shards, only read here
	switch {
	case o.mode == "shard" && o.shardDir != "":
		m, err := shard.LoadManifest(o.shardDir)
		if err != nil {
			return nil, err
		}
		path, sealed = fmt.Sprintf("%s shard %d", o.shardDir, o.shardOrdinal), true
		load = func() (*query.Index, error) {
			sh, err := shard.OpenShard(o.shardDir, m, o.shardOrdinal, o.indexMmap)
			if err != nil {
				return nil, err
			}
			return sh.Index, nil
		}
	case o.mode == "shard":
		ranges, err := shard.Plan(g.NumVertices(), o.shards)
		if err != nil {
			return nil, err
		}
		r, path = ranges[o.shardOrdinal], ""
	}
	// open loads the file at path and attaches the graph; how is for the log.
	open := func(how string) (*query.Index, error) {
		idx, err := load()
		if err != nil {
			return nil, err
		}
		if err := idx.AttachGraph(g); err != nil {
			return nil, fmt.Errorf("index %s does not match the graph: %w", path, err)
		}
		log.Printf("index: %s %s (%s)", how, path, idx.Backend())
		return idx, nil
	}

	if path != "" && (sealed || !o.rebuild) {
		idx, err := open("loaded")
		switch {
		case err == nil:
			if warn := paramMismatch(idx, opt); warn != "" {
				log.Printf("index: WARNING: loaded index disagrees with flags (%s); index-shaping flags are ignored for a loaded index — pass -rebuild (or re-run build-shards) to apply them", warn)
			}
			return idx, nil
		case sealed || !errors.Is(err, os.ErrNotExist):
			return nil, fmt.Errorf("loading index %s: %w", path, err)
		}
	}
	t0 := time.Now()
	if o.buildBudget > 0 {
		// Out-of-core build: walks stream to the file in budget-sized
		// slices, then the sealed file is opened for serving — the dense
		// index never exists in memory.
		st, err := query.BuildFileStreaming(g, opt, path, o.buildBudget)
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
		if o.indexMmap {
			return open("reopened")
		}
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
