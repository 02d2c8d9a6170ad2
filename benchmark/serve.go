package main

// serve-zipf and router-zipf: the online use. The same Zipf request stream
// — same graph, seed, op sequence and client count — is answered by one
// simrankd node, or by the router over two shard servers, each behind its
// own httptest listener. max(1, nproc-1) closed-loop clients, one connection each.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"
)

const (
	// The served dataset is fixed: the seed orders the request stream, it
	// does not draw the graph, so index size and precision are properties of
	// the code. 6000 vertices make a 31 MB index: at 30000 (156 MB) the same
	// sweep took 13 to 25 ms depending on how much of the host's shared L3
	// the neighbours left, and the tail spread by a quarter over ten runs.
	serveVertices   = 6000
	serveAvgDeg     = 11
	serveGraphSeed  = 1
	serveTraceSeed  = 1
	serveColdOps    = 1000 // per client and set-up, on the cold cache
	serveWarmOps    = 1000 // per client, after the cold ops and before the measured phase
	serveMeasured   = 8000 // per client at defaultSeconds
	servePrecisionN = 30
	routerShards    = 2
	routerCheckReqs = 50
	traceReplayOps  = 200
	minHitRatio     = 0.70

	// The tail of the serving workloads is p95, not the p99 the sample
	// count would allow: four fifths of the reads are cache hits, most of
	// the rest are index sweeps of near-constant cost, and only the last
	// percent or two are exact reranks, four to forty times a sweep. p99
	// falls on the edge between the last two; p95 is the sweep.
	serveTailP = 0.95
)

var serveTimeout = 10 * time.Second

// serveInstance is one deployment under test.
type serveInstance struct {
	g       graphT
	ix      indexT // serve-zipf: the served index; router-zipf: unset until the checks build it
	shards  []shardT
	servers []*httptest.Server
	shardAt []string // router-zipf: base URL of every shard server
	base    string   // base URL of the deployment under test
	clients []*client

	genS, buildS float64
}

func (in *serveInstance) listen(h http.Handler) string {
	ts := httptest.NewServer(h)
	in.servers = append(in.servers, ts)
	return ts.URL
}

func (in *serveInstance) close() {
	for _, cl := range in.clients {
		cl.close()
	}
	for _, ts := range in.servers {
		ts.Close()
	}
}

func runServe(c config, router bool) (*result, error) {
	n := c.shrink(serveVertices, 1500)
	// One core stays free: with a client per core the run-to-run spread of
	// throughput and tail was 25 to 40% whenever a neighbour took CPU, with
	// one client fewer 5 to 12% (measured interleaved, same quarter of an hour).
	clients := max(1, c.nproc-1)
	cold := c.shrink(serveColdOps, batchEvery)
	warm := c.shrink(serveWarmOps, 2*batchEvery)
	measured := c.scale(serveMeasured, 3*batchEvery)
	traffic := genServeTraffic(n, clients, cold, warm, measured, serveTraceSeed, c.seed)
	res := &result{e2e: map[string]float64{}, layer: map[string]float64{}}
	cfg := serverConfig{workers: 1, requestTimeout: serveTimeout}

	// Set-up: graph, index (or shards), servers, and the first requests on
	// the cold deployment.
	inst, setupS, err := repeatSetup(setupReps, func() (*serveInstance, error) {
		in := &serveInstance{}
		t0 := time.Now()
		in.g = webGraph(n, serveAvgDeg, serveGraphSeed)
		in.genS = time.Since(t0).Seconds()
		t0 = time.Now()
		if router {
			ranges, err := planShards(n, routerShards)
			if err != nil {
				return nil, err
			}
			for _, r := range ranges {
				sh, err := buildShard(in.g, serveGraphSeed, c.workers, r[0], r[1])
				if err != nil {
					return nil, err
				}
				in.shards = append(in.shards, sh)
			}
			in.buildS = time.Since(t0).Seconds()
			for _, sh := range in.shards {
				h, err := newShardServer(sh, cfg)
				if err != nil {
					return nil, err
				}
				in.shardAt = append(in.shardAt, in.listen(h))
			}
			rt, err := newRouter(in.g, in.shardAt, cfg)
			if err != nil {
				return nil, err
			}
			in.base = in.listen(rt)
		} else {
			var err error
			if in.ix, err = buildIndex(in.g, serveGraphSeed, c.workers); err != nil {
				return nil, err
			}
			in.buildS = time.Since(t0).Seconds()
			in.base = in.listen(newServer(in.ix, cfg))
		}
		for i := 0; i < clients; i++ {
			in.clients = append(in.clients, newClient())
		}
		if lr := runClosedLoop(in.base, in.clients, traffic.cold); lr.failed > 0 {
			in.close()
			return nil, fmt.Errorf("%s: warm-up op failed: %v", c.workload, lr.firstFailure)
		}
		return in, nil
	}, (*serveInstance).close)
	if err != nil {
		return nil, err
	}
	defer inst.close()

	// The rest of the warm-up fills the response cache to its steady state.
	lr := runClosedLoop(inst.base, inst.clients, traffic.warm)
	if lr.failed > 0 {
		return nil, fmt.Errorf("%s: warm-up op failed: %v", c.workload, lr.firstFailure)
	}
	warmupS := lr.wall.Seconds()
	res.note("graph=web n=%d m=%d graph_seed=%d clients=%d per_client: cold_ops=%d warm_ops=%d measured_ops=%d ops_digest=%s",
		n, inst.g.m(), serveGraphSeed, clients, cold, warm, measured, opDigest(append(append(traffic.cold, traffic.warm...), traffic.measured...)...))

	// Measured phase.
	scraper := newClient()
	defer scraper.close()
	before, err := scrapeMetrics(scraper, inst.base)
	if err != nil {
		return nil, err
	}
	mem := markMem()
	lr = runClosedLoop(inst.base, inst.clients, traffic.measured)
	mem.layerMetrics(lr.attempted, res.layer)
	after, err := scrapeMetrics(scraper, inst.base)
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed = lr.attempted, lr.failed
	if lr.failed > 0 {
		res.note("first_failure=%q", lr.firstFailure)
	}

	// Checks, outside every timer.
	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("simrankd_cache_hits_total"), delta("simrankd_cache_misses_total")
	hitRatio := hits / max(hits+misses, 1)
	if !c.quick && hitRatio < minHitRatio {
		return nil, fmt.Errorf("%s: response-cache hit ratio %.3f < %.2f: the median would not sit in the hit mode", c.workload, hitRatio, minHitRatio)
	}
	if shed, degraded := delta("simrankd_requests_shed_total"), delta("simrankd_requests_degraded_total"); shed != 0 || degraded != 0 {
		return nil, fmt.Errorf("%s: %v requests shed, %v degraded; both must be 0", c.workload, shed, degraded)
	}
	if router {
		// The router's answers must be the single node's, byte for byte.
		if inst.ix, err = buildIndex(inst.g, serveGraphSeed, c.workers); err != nil {
			return nil, err
		}
		single := inst.listen(newServer(inst.ix, cfg))
		if err := checkSameAnswers(scraper, inst.base, single, traffic.measured, c.shrink(routerCheckReqs, 10)); err != nil {
			return nil, err
		}
	}
	var overlaps []float64
	ctx := context.Background()
	for _, q := range pickSources(n, servePrecisionN, serveGraphSeed) {
		got, err := servedTopK(scraper, inst.base, q, 10)
		if err != nil {
			return nil, err
		}
		want, err := inst.ix.referenceTopK(ctx, q, 10)
		if err != nil {
			return nil, err
		}
		overlaps = append(overlaps, overlap(got, want))
	}

	indexBytes := inst.ix.bytes()
	if router {
		indexBytes = 0
		for _, sh := range inst.shards {
			indexBytes += sh.bytes()
		}
	}
	tailP := serveTailP
	ok := lr.attempted - lr.failed
	res.e2e["setup_s"] = setupS
	res.e2e["op_p50_ms"] = median(millis(lr.primary))
	res.e2e["op_tail_ms"] = quantile(millis(lr.primary), tailP)
	res.e2e["throughput_ops_s"] = float64(ok) / lr.wall.Seconds()
	res.e2e["second_op_p50_ms"] = median(millis(lr.second))
	res.e2e["index_bytes_per_vertex"] = float64(indexBytes) / float64(n)
	res.e2e["precision_at_10"] = mean(overlaps)
	res.note("primary=reads samples=%d tail=p%.0f second=batch%d samples=%d measured_wall_s=%.2f warmup_s=%.2f cache_hit_ratio=%.4f precision_sources=%d",
		len(lr.primary), tailP*100, batchSize, len(lr.second), lr.wall.Seconds(), warmupS, hitRatio, len(overlaps))
	pm := millis(lr.primary)
	res.note("primary_ms p75=%.3f p90=%.3f p95=%.3f p99=%.3f p99.9=%.3f max=%.3f",
		quantile(pm, 0.75), quantile(pm, 0.90), quantile(pm, 0.95), quantile(pm, 0.99), quantile(pm, 0.999), quantile(pm, 1))

	if c.trace {
		l := res.layer
		l["graph.gen_s"] = inst.genS
		l["loadgen.warmup_s"] = warmupS
		l["simrankd.cache_hit_ratio"] = hitRatio
		l["simrankd.shed_ratio"] = delta("simrankd_requests_shed_total") / float64(lr.attempted)
		l["simrankd.degraded_ratio"] = delta("simrankd_requests_degraded_total") / float64(lr.attempted)
		l["simrankd.response_bytes_per_op"] = float64(lr.respBytes) / float64(lr.attempted)
		l["walkindex.dense_bytes"] = float64(indexBytes)
		if router {
			l["shard.build_s"] = inst.buildS
		} else {
			l["walkindex.build_s"] = inst.buildS
		}
		if err := traceServe(c, inst, cfg, router, traffic.measured, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// globalOrder interleaves the per-client sequences: client 0's first op,
// client 1's first, client 0's second, ...
func globalOrder(perClient [][]op) []op {
	var out []op
	for j := 0; j < len(perClient[0]); j++ {
		for c := range perClient {
			out = append(out, perClient[c][j])
		}
	}
	return out
}

// checkSameAnswers sends the first count distinct requests of the measured
// sequence to both deployments and reports the first one they answer
// differently.
func checkSameAnswers(cl *client, a, b string, perClient [][]op, count int) error {
	seen := map[string]bool{}
	for _, o := range globalOrder(perClient) {
		r := renderOp(o)
		key := r.path + string(r.body)
		if seen[key] {
			continue
		}
		seen[key] = true
		_, _, body, err := cl.do(a, r)
		if err != nil {
			return err
		}
		got := append([]byte(nil), body...)
		_, _, want, err := cl.do(b, r)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("router-zipf: %s %s answered differently by router and single node:\n  router: %s\n  single: %s",
				r.method, key, firstLine(got), firstLine(want))
		}
		if len(seen) == count {
			break
		}
	}
	return nil
}

// traceServe replays the first traceReplayOps measured ops from one
// goroutine. Each op is sent to the deployment under test, then to
// cache-disabled twins, then its work is repeated by direct calls into the
// layers below on the same input; the spans nest accordingly.
func traceServe(c config, inst *serveInstance, cfg serverConfig, router bool, measured [][]op, res *result) error {
	noCache := cfg
	noCache.cacheSize = -1
	missBase := inst.listen(newServer(inst.ix, noCache))
	var routerMissBase string
	if router {
		rt, err := newRouter(inst.g, inst.shardAt, noCache)
		if err != nil {
			return err
		}
		routerMissBase = inst.listen(rt)
	}
	cl := newClient()
	defer cl.close()
	ctx := context.Background()
	tr := newTracer()
	row := make([]float64, inst.ix.n())
	ops := globalOrder(measured)
	ops = ops[:min(len(ops), traceReplayOps)]

	send := func(name string, parent, i int, base string, r request, o op) (int, error) {
		id := tr.start(name, parent, i)
		status, hdr, body, err := cl.do(base, r)
		tr.end(id)
		if err == nil {
			err = checkResponse(o, status, hdr, body)
		}
		return id, err
	}
	var hitMs []float64
	t0 := time.Now()
	for i, o := range ops {
		r := renderOp(o)
		root := tr.start("op."+o.kind.String(), 0, i)

		// The deployment under test; /metrics before and after says
		// whether the response cache answered.
		before, err := scrapeMetrics(cl, inst.base)
		if err != nil {
			return err
		}
		id, err := send("simrankd.request", root, i, inst.base, r, o)
		if err != nil {
			return err
		}
		after, err := scrapeMetrics(cl, inst.base)
		if err != nil {
			return err
		}
		if !o.second() && after["simrankd_cache_misses_total"] == before["simrankd_cache_misses_total"] {
			s := tr.spans[id-1]
			hitMs = append(hitMs, float64(s.EndNs-s.StartNs)/1e6)
		}
		id = tr.start("loadgen.client_floor", root, i)
		if _, _, _, err := cl.do(inst.base, request{method: http.MethodGet, path: "/healthz"}); err != nil {
			return err
		}
		tr.end(id)

		// The same request with no response cache in the way, and the
		// work beneath it called directly.
		miss, err := send("simrankd.request_miss", root, i, missBase, r, o)
		if err != nil {
			return err
		}
		if o.kind == opBatch {
			srcs := make([]int, len(o.sources))
			for j, s := range o.sources {
				srcs[j] = int(s)
			}
			id = tr.start("walkindex.multisource16", miss, i)
			_, err = inst.ix.multiSource(ctx, srcs, cfg.workers)
			tr.end(id)
			if err != nil {
				return err
			}
		} else {
			id = tr.start("walkindex.dense_sweep", miss, i)
			_, err = inst.ix.singleSourceInto(ctx, int(o.q), row)
			tr.end(id)
			if err != nil {
				return err
			}
			if o.kind != opSingleSource {
				name := "query.rank"
				if o.kind == opTopKRerank {
					name = "query.rerank"
				}
				id = tr.start(name, miss, i)
				_, err = inst.ix.topKFromScores(ctx, row, int(o.q), 10, o.kind == opTopKRerank)
				tr.end(id)
				if err != nil {
					return err
				}
			}
		}

		if router {
			rr, err := send("simrankd.router_request", root, i, routerMissBase, r, o)
			if err != nil {
				return err
			}
			srcs := []int{int(o.q)}
			if o.kind == opBatch {
				srcs = srcs[:0]
				for _, s := range o.sources {
					srcs = append(srcs, int(s))
				}
			}
			// The legs run concurrently inside the router; timed one
			// after the other here, the slowest is what the router waits
			// for.
			var slowest, slowestDirect time.Duration
			legs := tr.start("simrankd.shard_legs", rr, i)
			body, err := json.Marshal(map[string][]int{"sources": srcs})
			if err != nil {
				return err
			}
			for s, base := range inst.shardAt {
				id = tr.start("simrankd.shard_leg", legs, i)
				status, _, _, err := cl.do(base, request{method: http.MethodPost, path: "/shard/v1/scores", body: body})
				d := tr.end(id)
				if err != nil || status != http.StatusOK {
					return fmt.Errorf("shard leg %d: status %d, %v", s, status, err)
				}
				slowest = max(slowest, d)
				id = tr.start("shard.partial_scores", id, i)
				_, err = inst.shards[s].partialScores(ctx, srcs, cfg.workers)
				slowestDirect = max(slowestDirect, tr.end(id))
				if err != nil {
					return err
				}
			}
			tr.end(legs)
			tr.count(rr, "slowest_leg_ms", ms(slowest))
			tr.count(rr, "slowest_partial_scores_ms", ms(slowestDirect))
		}
		tr.end(root)
	}
	replayWall := time.Since(t0)
	if err := tr.write(spanFile(c)); err != nil {
		return err
	}

	l := res.layer
	l["simrankd.cache_hit_ms"] = median(hitMs)
	l["simrankd.request_miss_ms"] = median(tr.durations("simrankd.request_miss"))
	l["simrankd.self_ms"] = median(tr.selfTimes("simrankd.request_miss"))
	l["walkindex.dense_sweep_ms"] = median(tr.durations("walkindex.dense_sweep"))
	l["walkindex.multisource16_ms"] = median(tr.durations("walkindex.multisource16"))
	l["query.rank_ms"] = median(tr.durations("query.rank"))
	l["query.rerank_ms"] = median(tr.durations("query.rerank"))
	l["query.rerank_p99_ms"] = quantile(tr.durations("query.rerank"), 0.99)
	l["loadgen.client_floor_ms"] = median(tr.durations("loadgen.client_floor"))
	l["trace.overhead_ratio"] = float64(len(ops)) / replayWall.Seconds() / res.e2e["throughput_ops_s"]
	if router {
		rr := tr.durations("simrankd.router_request")
		legs := tr.counts("simrankd.router_request", "slowest_leg_ms")
		self := make([]float64, len(rr))
		for i := range rr {
			self[i] = rr[i] - legs[i]
		}
		l["simrankd.router_request_ms"] = median(rr)
		l["simrankd.shard_leg_ms"] = median(legs)
		l["simrankd.router_self_ms"] = median(self)
		l["simrankd.router_overhead_ratio"] = median(rr) / l["simrankd.request_miss_ms"]
		l["shard.partial_scores_ms"] = median(tr.counts("simrankd.router_request", "slowest_partial_scores_ms"))
	}
	res.note("trace: replayed_ops=%d cache_hits=%d spans=%d file=%s replay_wall_s=%.1f",
		len(ops), len(hitMs), len(tr.spans), spanFile(c), replayWall.Seconds())
	return nil
}
